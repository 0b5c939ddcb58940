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
once into outcome pairs.  Fresh frames turn the state's factors instead of the
bras: eta is L R^T with L = SECTOR ETA_COEFFS and R = SECTOR, and Alice's frame
turns L's two columns (``qcore.collective_turn``).  Bob's turned R is
orthonormal, so Alice's marginal ignores his frame: at the round's one uniform
Alice's word comes from her 16-word marginal, then Bob's from his row given
hers, which reads the 256 word pairs' inverse CDF in Alice-major order; in each
stage a uniform past a row's end takes its last possible word.  Bob's row given
Alice's word a is his turn of one column per frame, R xa[a] from her turned rows
xa, by linearity alone: no invariance of the state is used, and every frame is
applied numerically on both wings.  Two units split the fresh-frame work:
the seeded stream is drawn a chunk of ``_ROUNDS_PER_CHUNK`` rounds at a time
(Alice's frames, then Bob's, then the uniforms), and the word kernel runs on
blocks of ``_FRAMES_PER_BLOCK`` of those frames, a size set by cache, not by
the stream, since each round's words depend on its own frames and uniform
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dfs_states import ETA_COEFFS, ETA_INT, SECTOR, make_eta
from .qcore import (QuantumState, check_unitary, collective_turn, haar_su2_batch,
                    joint_probs, kron, product_bras, wing_bras)

# Fresh-frame marginal and conditional word probabilities analytically zero
# come out of floating-point amplitude algebra at ~1e-32; clipping below this
# threshold keeps impossible events impossible in sampled statistics.
_PROB_CLIP = 1e-20

_SETTING_PAIRS = (("F", "F"), ("F", "G"), ("G", "F"), ("G", "G"))

# Rounds per draw of fresh frames and uniforms: the unit of the seeded stream.
_ROUNDS_PER_CHUNK = 2048

# Frames per call of the fresh-frame word kernel: the unit of its work arrays,
# sized so that the turns stay in cache.  On a 2-core VM, 8,000 fresh rounds
# in a new interpreter (perfbench simulate, wall_ref) took 0.024-0.027 s at
# 512 against 0.029-0.032 s at 1,024, and 0.030-0.031 s against 0.031-0.037 s
# at 256, in four alternated pairs each.  50,000 warm rounds (report-all's)
# took 0.15 s at 1,024, 0.18 s at 512 and 0.20 s at 256 and 2,048 (medians
# of 15).  1,024 gains on the warm rounds but loses more in a new
# interpreter, so 512 stays.
_FRAMES_PER_BLOCK = 512


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
# eta = (SECTOR ETA_COEFFS) SECTOR^T.  einsum, not @: a float matmul at import
# would add BLAS buffers (0.3 MB of peak RSS) to runs without fresh frames.
_ETA_FACTORS = (np.einsum("vj,jk->vk", SECTOR, ETA_COEFFS), SECTOR)


def wing_distribution(state: QuantumState, protocol: str,
                      rotation: np.ndarray | None = None) -> np.ndarray:
    """Exact 16-word Born distribution for one wing's product measurement,
    its frame turned by the (2, 2) ``rotation`` when one is given."""
    if state.n_qubits != 4:
        raise ValueError("wing_distribution expects a 4-qubit state")
    bras = product_bras(_thetas(protocol))
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
    """Inverse-CDF word draws: row i of ``p``, clipped at _PROB_CLIP, at r[i].

    A row's last cumulative value can fall a few ulps short of the mass the
    row stands for, and an r above it would count past the last word; such a
    draw takes the row's last word of positive probability.  Every other draw
    is the plain count of cumulative values below r.  Returns the words and
    the cumulative rows.
    """
    p = np.where(p < _PROB_CLIP, 0.0, p)
    c = np.cumsum(p, axis=1)
    words = (c < r[:, None]).sum(axis=1)
    past = np.flatnonzero(words == p.shape[1])
    words[past] = p.shape[1] - 1 - np.argmax(p[past, ::-1] > 0, axis=1)
    return words, c


def _turned_columns(bras, u, vecs) -> np.ndarray:
    """bras (U^(x4))^dagger vecs for the frame stack u, as (16, r, m), of
    shared (16, r) or per-frame (16, r, m) columns: one product over all
    frames, since ``collective_turn`` puts the frame last."""
    turned = collective_turn(u.conj().swapaxes(-1, -2), vecs)
    return (bras @ turned.reshape(16, -1)).reshape(turned.shape)


def _fresh_words(factors, bras_a, ua, bras_b, ub, r) -> np.ndarray:
    """Word pairs 16 a + b of the rounds in frames (ua, ub) at uniforms r.

    ``factors`` (L, R) give the state as L R^T, R with orthonormal columns, so
    Bob's turned R is orthonormal: Alice's marginal is the squared row norms
    of her turned xa.  By linearity alone Bob's amplitudes given her word a
    are his turn of the one column R xa[a] per frame.
    """
    xa = _turned_columns(bras_a, ua, factors[0])
    pa = (xa.real ** 2 + xa.imag ** 2).sum(axis=1)
    total = pa.sum(axis=0)
    a, ca = _draw_words((pa / total).T, r)
    frames = np.arange(r.size)
    v = factors[1] @ xa[a, :, frames].T
    amps = _turned_columns(bras_b, ub, v[:, None])[:, 0]
    # Bob's word on what r leaves past Alice's words before a
    b, _ = _draw_words(((amps.real ** 2 + amps.imag ** 2) / total).T,
                       r - np.where(a > 0, ca[frames, a - 1], 0.0))
    return 16 * a + b


def _sample_fresh_rotations(bras_a, bras_b, n, rng):
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
            words = _fresh_words(_ETA_FACTORS, bras_a, ua[block], bras_b, ub[block], r[block])
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
    drift = np.zeros(n_frames)
    for (pa, pb), table in _TABLES.items():
        rotated = joint_probs(wing_bras(_BRAS[pa], ua), _AMP16, wing_bras(_BRAS[pb], ub))
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
            tally = _sample_fresh_rotations(_BRAS[pa], _BRAS[pb], n_pair, rng)
        counts[(pa, pb)] = {cell: int(count)
                            for cell, count in _class_cells(tally, pa, pb).items()}
    return ExperimentRecord(
        n_rounds=n_rounds,
        settings_policy=policy_name,
        rotations_policy=rotations_policy,
        seed=seed,
        counts=counts,
    )
