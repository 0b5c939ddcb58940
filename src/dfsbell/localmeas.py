"""Individual-qubit realization of the F and G measurements.

Each wing measures every qubit separately along an x-z plane angle
(``PROTOCOLS``); the qubits that share an angle form a pair, and an outcome
word is -1 (the singlet-pair state) exactly when its bits differ within both
pairs.  F pairs qubits (1,2) on the z axis and (3,4) on the x axis; G
exchanges qubits 2 and 3.  ``run_experiment`` keeps only outcome-pair cells:
fixed frames draw them from the exact integer word tables
(test_word_tables_are_exact_integer_distributions), and fresh frames draw
each round's Alice word from her marginal, then Bob's given hers
(test_two_stage_draw_is_the_bra_route_draw_for_draw), and sum the word
tally into cells.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from fractions import Fraction

import numpy as np

from .dfs_states import ETA_INT, ETA_NORM, ETA_TABLE, V, V_NORMS, make_eta
from .qcore import (QuantumState, check_bits, check_count, check_unitary,
                    collective_turn, haar_su2_batch, joint_probs, kron,
                    product_bras, turn_table, wing_bras)

# Fresh-frame marginal and conditional word probabilities analytically zero
# come out of floating-point amplitude algebra at ~1e-32; clipping below this
# threshold keeps impossible events impossible in sampled statistics.
_PROB_CLIP = 1e-20

_SETTING_PAIRS = (("F", "F"), ("F", "G"), ("G", "F"), ("G", "G"))

# Rounds per draw of fresh frames and uniforms: the unit of the seeded stream.
_ROUNDS_PER_CHUNK = 2048

# Frames per call of the fresh-frame word kernel: the unit of its work arrays,
# sized so that they stay in cache and the turn's product runs on one BLAS
# thread.
_FRAMES_PER_BLOCK = 256


# Per-qubit measurement directions as x-z plane angles (z axis at 0, x at pi/4).
PROTOCOLS = {
    "F": (0.0, 0.0, math.pi / 4, math.pi / 4),
    "G": (0.0, math.pi / 4, 0.0, math.pi / 4),
}


def _thetas(protocol: str) -> tuple:
    try:
        return PROTOCOLS[protocol]
    except KeyError:
        raise ValueError(f"unknown protocol {protocol!r}") from None


def classify_outcome(word, protocol: str) -> int:
    """-1 if the 4-bit outcome word's bits differ within both pairs of the
    protocol (the singlet-pair class), else +1; the word is four bits that
    ``check_bits`` passes, or ValueError."""
    thetas = _thetas(protocol)
    bits = check_bits(word)
    if len(bits) != 4:
        raise ValueError(f"word must be four bits, got {word!r}")
    pairs = ([b for t, b in zip(thetas, bits) if t == theta] for theta in set(thetas))
    return -1 if all(a != b for a, b in pairs) else +1


_SIGNS = {p: np.array([classify_outcome(f"{w:04b}", p) for w in range(16)])
          for p in PROTOCOLS}
_BRAS = {p: product_bras(thetas) for p, thetas in PROTOCOLS.items()}
# B_p = 2 product_bras: the z row at angle 0, the x row at pi/4 times sqrt 2
_INT_ROWS = {0.0: np.array([[1, 0], [0, -1]]), math.pi / 4: np.array([[1, 1], [1, -1]])}
_INT_BRAS = {p: kron([_INT_ROWS[t] for t in thetas]) for p, thetas in PROTOCOLS.items()}
# Each setting pair's integer word-pair weights (B_a ETA_INT B_b^T)^2, which sum
# to 1792: over that sum they are the unrotated words' Born probabilities.
_TABLES = {(a, b): ((_INT_BRAS[a] @ ETA_INT.reshape(16, 16) @ _INT_BRAS[b].T) ** 2).ravel()
           for a, b in _SETTING_PAIRS}
_AMP16 = make_eta().amplitudes.reshape(16, 16)
# Outcome pairs (oa, ob) in the order of their cell 2 [oa = +1] + [ob = +1].
_CELLS = ((-1, -1), (-1, 1), (1, -1), (1, 1))


def _fixed_draw(cells, weights) -> tuple:
    """``(cells, weights)`` as arrays, of the words of positive weight only:
    numpy's multinomial gives the last category what the others leave, which
    must not reach a word of weight 0."""
    kept = [(c, w) for c, w in zip(cells, weights) if w > 0]
    return np.array([c for c, _ in kept]), np.array([w for _, w in kept])


# Per setting pair, the cell of each word pair 16 a + b, and the fixed-frame
# draw.  Python ints only: numpy masks at import add to the peak RSS of every
# run, the ones that never simulate included.
_CELL_INDEX = {(a, b): np.array([2 * (sa > 0) + (sb > 0) for sa in _SIGNS[a].tolist()
                                 for sb in _SIGNS[b].tolist()])
               for a, b in _SETTING_PAIRS}
_FIXED_DRAWS = {pair: _fixed_draw(cells.tolist(), _TABLES[pair].tolist())
                for pair, cells in _CELL_INDEX.items()}


def _factor_tables(vecs, scale) -> dict:
    """Per protocol, the (32, 35) ``turn_table`` of its bras and the factor
    ``vecs`` diag(scale), from the integer table of its integer bras (twice
    the bras) and the integer (16, 2) ``vecs``."""
    return {p: (turn_table(bras, vecs).reshape(16, 2, 35) * (scale[:, None] / 2)
                ).reshape(32, 35) for p, bras in _INT_BRAS.items()}


# eta = L R^T: R = SECTOR = V diag(1 / |V_j|) and L = SECTOR ETA_COEFFS =
# V ETA_TABLE diag(|V_k| / |ETA_INT|), for the integer columns V = (V0, V1).
# Integers and elementwise scaling only: a float matmul at import would add
# BLAS buffers to the peak RSS of runs without fresh frames.
_ALICE_TABLES = _factor_tables(V @ ETA_TABLE, V_NORMS / ETA_NORM)
_BOB_TABLES = _factor_tables(V, 1.0 / V_NORMS)


def wing_distribution(state: QuantumState, protocol: str,
                      rotation: np.ndarray | None = None) -> np.ndarray:
    """Exact 16-word Born distribution for one wing's product measurement,
    its frame turned by the (2, 2) ``rotation`` when one is given."""
    if state.n_qubits != 4:
        raise ValueError("wing_distribution expects a 4-qubit state")
    _thetas(protocol)  # unknown names raise here
    bras = _BRAS[protocol]
    if rotation is not None:
        bras = wing_bras(bras, check_unitary(rotation))
    return np.abs(bras @ state.amplitudes) ** 2


def wing_outcome_distribution(state: QuantumState, protocol: str,
                              rotation: np.ndarray | None = None) -> dict:
    """Exact induced distribution over {-1, +1} after classification."""
    probs = wing_distribution(state, protocol, rotation)
    signs = _SIGNS[protocol]
    return {-1: float(probs[signs == -1].sum()), +1: float(probs[signs == +1].sum())}


@dataclass(frozen=True)
class ExperimentRecord:
    """Tallies from a simulated two-wing run; counts[(sa, sb)][(oa, ob)].
    ``settings_policy`` is accepted and dropped, kept while the benchmark's
    tests pass it (ROADMAP item 2)."""

    n_rounds: int
    rotations_policy: str
    seed: int
    counts: dict
    settings_policy: InitVar[str] = "random"

    def setting_total(self, pair) -> int:
        return sum(self.counts[tuple(pair)].values())

    def frequency(self, pair, outcome_pair) -> float:
        total = self.setting_total(pair)
        if total == 0:
            return float("nan")
        return self.counts[tuple(pair)][tuple(outcome_pair)] / total

    def to_dict(self) -> dict:
        return {
            "n_rounds": self.n_rounds,
            "rotations_policy": self.rotations_policy,
            "seed": self.seed,
            "counts": {
                f"{sa},{sb}": {
                    f"{oa:+d},{ob:+d}": self.counts[(sa, sb)][(oa, ob)]
                    for oa in (-1, +1) for ob in (-1, +1)
                }
                for sa, sb in _SETTING_PAIRS
            },
        }


def _draw_words(p, r) -> tuple:
    """``(words, cumulative columns)``: the inverse-CDF draw of column i of
    ``p``, frame last, clipped at _PROB_CLIP, at r[i].  An r past a column's
    last cumulative value, which can fall a few ulps short, draws the
    column's last word of positive probability."""
    p = np.where(p < _PROB_CLIP, 0.0, p)
    c = np.cumsum(p, axis=0)
    words = (c < r).sum(axis=0)
    past = np.flatnonzero(words == len(p))
    words[past] = len(p) - 1 - np.argmax(p[::-1, past] > 0, axis=0)
    return words, c


def _fresh_words(table_a, ua, table_b, ub, r) -> np.ndarray:
    """Word pairs 16 a + b of the rounds in frames (ua, ub) at uniforms r,
    from the ``turn_table``s of each wing's bras with the factors (L, R) of
    the state L R^T, R orthonormal
    (test_two_stage_draw_needs_no_rotation_invariance).  Each wing's turn is
    one ``collective_turn``, which builds and turns only the monomials of
    the table's non-zero columns: the 3 of det(U)^2 for eta's tables."""
    frames = np.arange(r.size)
    xa = collective_turn(table_a, ua.conj().swapaxes(-1, -2)).reshape(16, -1, r.size)
    pa = (xa.real ** 2 + xa.imag ** 2).sum(axis=1)
    total = pa.sum(axis=0)
    a, ca = _draw_words(pa / total, r)
    xb = collective_turn(table_b, ub.conj().swapaxes(-1, -2)).reshape(16, -1, r.size)
    amps = (xb * xa[a, :, frames].T).sum(axis=1)
    # Bob's word on what r leaves past Alice's words before a
    b, _ = _draw_words((amps.real ** 2 + amps.imag ** 2) / total,
                       r - np.where(a > 0, ca[a - 1, frames], 0.0))
    return 16 * a + b


def _sample_fresh_rotations(table_a, table_b, n, rng):
    """256-word tally of n rounds, each wing in a fresh Haar frame every round:
    frames and uniforms are drawn per chunk, words per block of its frames."""
    tally = np.zeros(256, dtype=np.int64)
    for done in range(0, n, _ROUNDS_PER_CHUNK):
        m = min(_ROUNDS_PER_CHUNK, n - done)
        ua = haar_su2_batch(rng, (m,))
        ub = haar_su2_batch(rng, (m,))
        r = rng.random(m)
        for lo in range(0, m, _FRAMES_PER_BLOCK):
            block = slice(lo, lo + _FRAMES_PER_BLOCK)
            words = _fresh_words(table_a, ua[block], table_b, ub[block], r[block])
            tally += np.bincount(words, minlength=256)
    return tally


def max_frame_drift(n_frames: int, seed) -> tuple:
    """``(drift, index)``: the largest change of a word-pair probability of
    any setting pair, over ``n_frames`` Haar frame pairs (U_a, U_b), from the
    exact unrotated table, and the frame pair that gives it.  The
    alignment-free claim makes the drift zero up to rounding."""
    check_count("n_frames", n_frames)
    rng = np.random.default_rng(seed)
    ua = haar_su2_batch(rng, (n_frames,))
    ub = haar_su2_batch(rng, (n_frames,))
    alice = {p: wing_bras(bras, ua) for p, bras in _BRAS.items()}
    bob = {p: wing_bras(bras, ub) for p, bras in _BRAS.items()}
    drift = np.zeros(n_frames)
    for (pa, pb), table in _TABLES.items():
        rotated = joint_probs(alice[pa], _AMP16, bob[pb])
        fixed = (table / table.sum()).reshape(16, 16)
        drift = np.maximum(drift, np.abs(rotated - fixed).max(axis=(1, 2)))
    return float(drift.max()), int(drift.argmax())


def _cell_sums(cells, counts) -> list:
    """Sums of the int64 ``counts`` per cell index in ``cells``, in _CELLS
    order; exact, where a float route rounds totals past 2^53."""
    sums = np.zeros(4, dtype=np.int64)
    np.add.at(sums, cells, counts)
    return sums.tolist()


def exact_class_cells() -> dict:
    """cells[(pa, pb)][(oa, ob)]: the class cells of the unrotated word
    tables, over each table's sum, as Fractions."""
    return {pair: {cell: Fraction(weight, int(table.sum())) for cell, weight
                   in zip(_CELLS, _cell_sums(_CELL_INDEX[pair], table))}
            for pair, table in _TABLES.items()}


def run_experiment(n_rounds: int, settings_policy="random",
                   rotations_policy: str = "identity", seed: int = 0) -> ExperimentRecord:
    """Outcome-pair counts per setting pair of ``n_rounds`` (an integer of at
    least 1) two-wing rounds on the shared state, seeded by ``seed``.

    Each wing picks F or G uniformly at random, the only
    ``settings_policy``, kept while the benchmark passes it (ROADMAP item
    2).  ``rotations_policy`` "fresh" gives each wing an independent Haar
    frame every round, "identity" none; the statistics must not differ,
    which is the alignment-free claim.
    """
    n_rounds = check_count("n_rounds", n_rounds)
    if settings_policy != "random":
        raise ValueError(f"unknown settings_policy {settings_policy!r}")
    if rotations_policy not in ("identity", "fresh"):
        raise ValueError(f"unknown rotations_policy {rotations_policy!r}")
    rng = np.random.default_rng(seed)
    n_pairs = rng.multinomial(n_rounds, [0.25] * 4).tolist()
    counts = {}
    for (pa, pb), n_pair in zip(_SETTING_PAIRS, n_pairs):
        if rotations_policy == "identity":
            cells, weights = _FIXED_DRAWS[(pa, pb)]
            tally = rng.multinomial(n_pair, weights / weights.sum())
        else:
            cells = _CELL_INDEX[(pa, pb)]
            tally = _sample_fresh_rotations(_ALICE_TABLES[pa], _BOB_TABLES[pb],
                                            n_pair, rng)
        counts[(pa, pb)] = dict(zip(_CELLS, _cell_sums(cells, tally)))
    return ExperimentRecord(
        n_rounds=n_rounds,
        rotations_policy=rotations_policy,
        seed=seed,
        counts=counts,
    )
