"""Individual-qubit realization of the F and G measurements.

Instead of projecting onto 16-dimensional eigenvectors, each wing measures
every qubit separately: two qubits along a common direction and the other two
along a perpendicular one.  A protocol is its four x-z plane angles, and the
qubits that share an angle form its two pairs.  The 16-outcome word then
classifies the wing's state: outcome -1 (the singlet-pair state) exactly when
the bits differ within both pairs.  For F, qubits (1,2) share the z axis and
(3,4) the x axis; G is the same table with qubits 2 and 3 exchanging roles.

Every wing measurement is one matrix of bras, one row per outcome word
(``qcore.product_bras``), and ``qcore.joint_probs`` gives the word-pair
probabilities on the two-wing state.  The exact checks turn a wing's frame by
``qcore.wing_bras`` of those rows.

In unrotated frames every probability is exact: twice the bras are integer
matrices B_p, so each setting pair's 256-word distribution is the integer
table (B_a ETA_INT B_b^T)^2 over 1792.  Fixed frames draw from these tables,
the frame-drift check compares against them, and ``exact_class_cells`` reads
their outcome-pair cells as Fractions.

The simulation keeps only word tallies.  Random settings draw the four setting
pairs' round counts as one multinomial, the first draw of the seeded stream;
fixed frames draw each setting pair's 256-word tally as one multinomial, fresh
frames draw one word pair per round, and either way the tally is classified
once into outcome pairs.  Fresh frames turn the state's factors instead of
the bras: eta is L R^T with L = SECTOR ETA_COEFFS and R = SECTOR, and each
wing's bras and factor are one ``qcore.turn_table``, built at import from the
integer bras, V and ETA_TABLE and scaled once, so that a block of frames
costs one ``qcore.collective_turn`` per wing.  Bob's turned R is orthonormal,
so Alice's marginal ignores his frame: at the round's one uniform Alice's
word comes from her 16-word marginal, then Bob's from his row given hers,
which reads the 256 word pairs' inverse CDF in Alice-major order; in each
stage a uniform past a row's end takes its last possible word.  Bob's row
given Alice's word a is his two turned columns contracted with her turned row
xa[a], since R xa[a] lies in R's span: linearity alone, no invariance of the
state, and every frame is applied numerically on both wings.  Two units split
the fresh-frame work: the seeded stream is drawn a chunk of
``_ROUNDS_PER_CHUNK`` rounds at a time (Alice's frames, then Bob's, then the
uniforms), and the word kernel runs on blocks of ``_FRAMES_PER_BLOCK`` of
those frames, a size set by cache, not by the stream; a round's words depend
on the rest of its block only through the rounding of the turn's product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dfs_states import ETA_INT, ETA_TABLE, V, V_NORMS, make_eta
from .qcore import (QuantumState, check_unitary, collective_turn, haar_su2_batch,
                    joint_probs, kron, product_bras, turn_table, wing_bras)

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
    """Map a 4-bit outcome word to -1 (singlet-pair class) or +1.

    The qubits that share an angle form a pair; the word is -1 exactly when
    its bits differ within both pairs.
    """
    thetas = _thetas(protocol)
    bits = tuple(int(b) for b in word)
    if len(bits) != 4 or any(b not in (0, 1) for b in bits):
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
_ALICE_TABLES = _factor_tables(V @ ETA_TABLE,
                              V_NORMS / math.sqrt((ETA_INT * ETA_INT).sum()))
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
    """Tallies from a simulated two-wing run; counts[(sa, sb)][(oa, ob)]."""

    n_rounds: int
    settings_policy: str
    rotations_policy: str
    seed: int
    counts: dict

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
            "settings_policy": self.settings_policy,
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
    """Inverse-CDF word draws: column i of ``p``, frame last, clipped at
    _PROB_CLIP, at r[i].

    A column's last cumulative value can fall a few ulps short of the mass
    it stands for, and an r above it would count past the last word; such a
    draw takes the column's last word of positive probability.  Every other
    draw is the plain count of cumulative values below r.  Returns the words
    and the cumulative columns.
    """
    p = np.where(p < _PROB_CLIP, 0.0, p)
    c = np.cumsum(p, axis=0)
    words = (c < r).sum(axis=0)
    past = np.flatnonzero(words == len(p))
    words[past] = len(p) - 1 - np.argmax(p[::-1, past] > 0, axis=0)
    return words, c


def _fresh_words(table_a, ua, table_b, ub, r) -> np.ndarray:
    """Word pairs 16 a + b of the rounds in frames (ua, ub) at uniforms r.

    ``table_a`` and ``table_b`` are the ``turn_table``s of each wing's bras
    with the factors (L, R) of the state L R^T, R with orthonormal columns,
    so Bob's turned R is orthonormal: Alice's marginal is the squared row
    norms of her turned xa.  Bob's amplitudes given her word a are R xa[a]
    turned, which by linearity is his turned R times xa[a].
    """
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
    """Largest change of a word-pair probability when both wings turn their frames.

    Draws ``n_frames`` Haar pairs (U_a, U_b) and, for every setting pair,
    compares the 256-word joint distribution of the rotated product bases on
    the two-wing state with the exact unrotated one, its integer table over
    its sum.  The alignment-free claim makes the drift zero up to rounding.
    Returns the drift and the index of the frame pair that produced it.
    """
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


def _word_tally(p, n: int, rng) -> np.ndarray:
    """Word tally of n rounds that all draw from the weights ``p``.

    One multinomial over the words of positive weight, with ``p``
    normalized there: numpy gives the last category whatever the others
    leave, and a row summing a few ulps below 1 must not hand that remainder
    to a word of probability 0.
    """
    support = np.flatnonzero(p)
    tally = np.zeros(p.size, dtype=np.int64)
    tally[support] = rng.multinomial(n, p[support] / p[support].sum())
    return tally


def _class_cells(tally, pa: str, pb: str) -> dict:
    """A 256-word tally of setting pair (pa, pb), summed per outcome pair."""
    cells = tally.reshape(16, 16)
    return {(oa, ob): cells[np.ix_(_SIGNS[pa] == oa, _SIGNS[pb] == ob)].sum()
            for oa in (-1, 1) for ob in (-1, 1)}


def exact_class_cells() -> dict:
    """cells[(pa, pb)][(oa, ob)]: the class cells of the unrotated word
    tables, over each table's sum, as Fractions."""
    return {pair: {cell: Fraction(int(weight), int(table.sum()))
                   for cell, weight in _class_cells(table, *pair).items()}
            for pair, table in _TABLES.items()}


def run_experiment(n_rounds: int, settings_policy="random",
                   rotations_policy: str = "identity", seed: int = 0) -> ExperimentRecord:
    """Simulate n_rounds of the two-wing experiment on the shared state.

    Fixed frames draw one word tally per setting pair, fresh frames one word
    per round; either way each pair's 256-word tally is classified once.

    Parameters
    ----------
    n_rounds : int
        Number of prepared copies; must be >= 1.
    settings_policy : "random" or a pair like ("G", "G")
        Either each wing picks F or G uniformly at random, or both settings
        are fixed for every round.  Random settings draw the four pairs'
        round counts as one multinomial with that law, Multinomial(n_rounds;
        1/4, 1/4, 1/4, 1/4), in ``_SETTING_PAIRS`` order.
    rotations_policy : "identity" or "fresh"
        With "fresh", each wing's product basis gets an independent
        Haar-random common rotation every round; the tallied statistics must
        not change, which is the alignment-free claim.
    seed : int
        Root seed for settings, rotations, and outcome draws.

    Returns
    -------
    ExperimentRecord
        Outcome-pair counts per setting pair after classification.
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    if rotations_policy not in ("identity", "fresh"):
        raise ValueError(f"unknown rotations_policy {rotations_policy!r}")
    rng = np.random.default_rng(seed)

    if settings_policy == "random":
        n_pairs = rng.multinomial(n_rounds, [0.25] * 4).tolist()
        policy_name = "random"
    else:
        pa, pb = settings_policy
        if pa not in ("F", "G") or pb not in ("F", "G"):
            raise ValueError(f"bad fixed settings {settings_policy!r}")
        n_pairs = [n_rounds if pair == (pa, pb) else 0 for pair in _SETTING_PAIRS]
        policy_name = f"fixed:{pa},{pb}"

    counts = {}
    for (pa, pb), n_pair in zip(_SETTING_PAIRS, n_pairs):
        if rotations_policy == "identity":
            tally = _word_tally(_TABLES[(pa, pb)], n_pair, rng)
        else:
            tally = _sample_fresh_rotations(_ALICE_TABLES[pa], _BOB_TABLES[pb],
                                            n_pair, rng)
        counts[(pa, pb)] = {cell: int(count)
                            for cell, count in _class_cells(tally, pa, pb).items()}
    return ExperimentRecord(
        n_rounds=n_rounds,
        settings_policy=policy_name,
        rotations_policy=rotations_policy,
        seed=seed,
        counts=counts,
    )
