"""Exact joint and conditional outcome probabilities on the two-wing state.

Alice holds qubits 1-4, Bob qubits 5-8.  Each wing measures a rank-2
observable, F or G, possibly turned by a collective rotation of that wing,
through its two eigen-bras, the -1 row then the +1 row; outcomes are -1, +1,
or "null" for the 14-dimensional complement.  Every probability is computed
from amplitudes, never sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dfs_states import Observable, make_eta, make_f, make_g
from .hardy import P_POSITIVE
from .qcore import (QuantumState, check_count, check_unitary, haar_su2_batch,
                    joint_probs, wing_bras)

NULL = "null"
# the labelled outcomes, in the order of a wing's two bras
_LABELS = (-1, +1)
OUTCOMES = _LABELS + (NULL,)

# Probability below which conditioning is treated as conditioning on a
# zero-probability event.
_ZERO_EVENT = 1e-12


class UndefinedConditionalError(ValueError):
    """Conditioning event has probability (numerically) zero."""


def _check_wing(wing: str) -> None:
    """Raise ValueError unless ``wing`` is 'alice' or 'bob'."""
    if wing not in ("alice", "bob"):
        raise ValueError(f"wing must be 'alice' or 'bob', got {wing!r}")


def _check_outcomes(*outcomes) -> None:
    """Raise ValueError unless every outcome is -1, +1 or NULL."""
    for o in outcomes:
        if o not in OUTCOMES:
            raise ValueError(f"unknown outcome {o!r}")


def _wing_matrix(state: QuantumState, caller: str) -> np.ndarray:
    """The (16, 16) amplitudes of an 8-qubit state, Alice's word by Bob's."""
    if state.n_qubits != 8:
        raise ValueError(f"{caller} expects an 8-qubit state")
    return state.amplitudes.reshape(16, 16)


@dataclass(frozen=True)
class LocalRotation:
    """Collective rotation of one wing's observable: each eigenvector gets
    U^(x4), for the (2, 2) frame ``u``."""

    u: np.ndarray
    wing: str

    def __post_init__(self):
        object.__setattr__(self, "u", check_unitary(self.u))
        _check_wing(self.wing)


@dataclass(frozen=True)
class Setting:
    """One wing's measurement choice: an observable plus an optional rotation."""

    observable: Observable
    rotation: LocalRotation | None = None


def _setting_bras(setting: Setting, wing: str) -> np.ndarray:
    """The (2, 16) eigen-bras of one wing, minus then plus, rotation applied."""
    obs = setting.observable
    bras = np.array([obs.minus.amplitudes.conj(), obs.plus.amplitudes.conj()])
    if setting.rotation is not None:
        if setting.rotation.wing != wing:
            raise ValueError(
                f"rotation is for wing {setting.rotation.wing!r}, used on {wing!r}"
            )
        bras = wing_bras(bras, setting.rotation.u)
    return bras


def _marginal(bras: np.ndarray, m: np.ndarray, wing: str) -> np.ndarray:
    """Outcome probabilities of one wing's bras, the other wing unmeasured."""
    if wing == "bob":
        m = m.T
    return np.sum(np.abs(bras @ m) ** 2, axis=-1)


def joint_distribution(state: QuantumState, a: Setting, b: Setting) -> dict:
    """All nine outcome-pair probabilities for settings (a on Alice, b on Bob)."""
    m = _wing_matrix(state, "joint_distribution")
    ba, bb = _setting_bras(a, "alice"), _setting_bras(b, "bob")
    joint = joint_probs(ba, m, bb)
    pa, pb = _marginal(ba, m, "alice"), _marginal(bb, m, "bob")
    # labelled x labelled blocks from amplitudes, null rows/columns from
    # marginals so the nine entries sum to 1 exactly.
    dist = {(x, y): float(joint[i, j])
            for i, x in enumerate(_LABELS) for j, y in enumerate(_LABELS)}
    for i, x in enumerate(_LABELS):
        dist[(x, NULL)] = max(0.0, float(pa[i] - joint[i].sum()))
    for j, y in enumerate(_LABELS):
        dist[(NULL, y)] = max(0.0, float(pb[j] - joint[:, j].sum()))
    covered = pa.sum() + pb.sum() - joint.sum()
    dist[(NULL, NULL)] = max(0.0, float(1.0 - covered))
    return dist


def joint_probability(state: QuantumState, a: Setting, b: Setting,
                      outcome_a, outcome_b) -> float:
    """Born probability of one outcome pair; outcomes are -1, +1 or NULL."""
    _check_outcomes(outcome_a, outcome_b)
    return joint_distribution(state, a, b)[(outcome_a, outcome_b)]


def wing_marginal(state: QuantumState, setting: Setting, wing: str) -> dict:
    """Single-wing outcome distribution, other wing unmeasured."""
    _check_wing(wing)
    m = _wing_matrix(state, "wing_marginal")
    p = _marginal(_setting_bras(setting, wing), m, wing)
    probs = {label: float(x) for label, x in zip(_LABELS, p)}
    probs[NULL] = max(0.0, 1.0 - sum(probs.values()))
    return probs


def conditional_probability(state: QuantumState, target, given) -> float:
    """P(target | given) where target and given are (setting, outcome, wing) triples.

    The two triples must name different wings.  Conditioning on an event of
    probability below 1e-12 raises UndefinedConditionalError rather than
    returning 0/0.
    """
    t_setting, t_outcome, t_wing = target
    g_setting, g_outcome, g_wing = given
    if {t_wing, g_wing} != {"alice", "bob"}:
        raise ValueError("target and given must be on opposite wings")
    _check_outcomes(t_outcome, g_outcome)
    if t_wing == "alice":
        dist = joint_distribution(state, t_setting, g_setting)
        p_joint = dist[(t_outcome, g_outcome)]
        p_given = sum(dist[(o, g_outcome)] for o in OUTCOMES)
    else:
        dist = joint_distribution(state, g_setting, t_setting)
        p_joint = dist[(g_outcome, t_outcome)]
        p_given = sum(dist[(g_outcome, o)] for o in OUTCOMES)
    if p_given < _ZERO_EVENT:
        raise UndefinedConditionalError(
            f"conditioning event has probability {p_given:.3e}"
        )
    return p_joint / p_given


# The four correlation facts the whole construction rests on, with their
# closed-form values on the two-wing state.
EXPECTED_CORRELATIONS = {
    "joint_ff_plus_plus": 0.0,
    "cond_fa_given_gb": 1.0,
    "cond_fb_given_ga": 1.0,
    "joint_gg_plus_plus": float(P_POSITIVE),
}

# The four rotated settings of the suite, in the order of their draws.
_SUITE_SETTINGS = ("F on Alice", "G on Alice", "F on Bob", "G on Bob")


@dataclass(frozen=True)
class CorrelationSuiteResult:
    """Identity-rotation values plus worst-case deviation over rotation samples.

    ``worst_sample[key]`` is the index i of the rotation tuple with the
    largest deviation of that key; tuple i uses draws 4i..4i+3 of the seeded
    stream.  ``worst_null`` is ``(setting, i)`` for the largest null-outcome
    probability, with i None when the unrotated setting gives it.
    """

    identity_values: dict
    max_deviation: dict
    max_null_probability: float
    worst_sample: dict
    worst_null: tuple


def verify_correlation_suite(n_rotation_samples: int = 100,
                             seed=0) -> CorrelationSuiteResult:
    """The four correlation quantities unrotated, and their worst deviation
    from ``EXPECTED_CORRELATIONS`` over ``n_rotation_samples`` tuples of four
    Haar rotations, drawn in ``_SUITE_SETTINGS`` order, with the largest
    null-outcome probability of any setting, which spin-zero states hold at
    zero."""
    check_count("n_rotation_samples", n_rotation_samples)
    m = make_eta().amplitudes.reshape(16, 16)
    rng = np.random.default_rng(seed)
    # tuple 0 is unrotated, tuple i + 1 holds sample i's four rotations
    us = np.concatenate([np.broadcast_to(np.eye(2), (1, 4, 2, 2)),
                         haar_su2_batch(rng, (n_rotation_samples, 4))])
    f = _setting_bras(Setting(make_f()), "alice")
    g = _setting_bras(Setting(make_g()), "alice")
    fa, ga, fb, gb = (wing_bras(bras, us[:, i]) for i, bras in enumerate((f, g, f, g)))

    # row 1 of every wing's bras is its +1 outcome
    def joint_plus(ba, bb):
        return joint_probs(ba, m, bb)[:, 1, 1]

    values = {
        "joint_ff_plus_plus": joint_plus(fa, fb),
        "cond_fa_given_gb": joint_plus(fa, gb) / _marginal(gb, m, "bob")[:, 1],
        "cond_fb_given_ga": joint_plus(ga, fb) / _marginal(ga, m, "alice")[:, 1],
        "joint_gg_plus_plus": joint_plus(ga, gb),
    }
    dev = {k: np.abs(v[1:] - EXPECTED_CORRELATIONS[k]) for k, v in values.items()}
    null = np.stack([
        1.0 - _marginal(bras, m, wing).sum(axis=-1)
        for bras, wing in zip((fa, ga, fb, gb), ("alice", "alice", "bob", "bob"))
    ])
    setting, tuple_index = np.unravel_index(null.argmax(), null.shape)
    return CorrelationSuiteResult(
        identity_values={k: float(v[0]) for k, v in values.items()},
        max_deviation={k: float(d.max()) for k, d in dev.items()},
        max_null_probability=max(0.0, float(null.max())),
        worst_sample={k: int(d.argmax()) for k, d in dev.items()},
        worst_null=(_SUITE_SETTINGS[setting],
                    int(tuple_index) - 1 if tuple_index else None),
    )
