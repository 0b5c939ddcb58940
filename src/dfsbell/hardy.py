"""Hardy-type logic on the two-wing singlet sectors.

Each wing carries a protected qubit spanned by its two sector basis states,
and chooses between the fixed observable F and a rotated one G, whose bras
are the rows of ``axis_rows`` at 0 and alpha.  A Hardy witness has the three
probabilities of ``ZERO_EVENTS`` zero and that of ``POSITIVE_EVENT``
positive; on the shared state it is ``P_POSITIVE`` = 9/112.
``lhv_feasibility`` shows in exact arithmetic that no local deterministic
model meets that pattern (test_lhv_standard_scenario_is_infeasible).  Both
optima are closed form, through the reduction of the positive-event
probability to P(x, y) (test_exact_certificate_of_both_optima).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dfs_states import ETA_COEFFS, SECTOR
from .qcore import QuantumState, axis_rows, check_count, check_finite

# The Hardy pattern as (Alice's setting, Bob's setting, Alice's outcome,
# Bob's outcome): three events that never occur, and one that does.
ZERO_EVENTS = (("F", "F", +1, +1), ("F", "G", -1, +1), ("G", "F", +1, -1))
POSITIVE_EVENT = ("G", "G", +1, +1)
P_POSITIVE = Fraction(9, 112)

# All four-outcome deterministic strategies (f_a, g_a, f_b, g_b).
STRATEGIES = tuple(itertools.product((-1, +1), repeat=4))

# Golden-ratio constants of the angle-free optimum: with t = (sqrt 5 - 1)/2
# the best angle has sin^2(alpha) = t and the probability equals t^5.
FREE_OPTIMAL_SIN_SQ = (math.sqrt(5.0) - 1.0) / 2.0
FREE_MAXIMUM = FREE_OPTIMAL_SIN_SQ ** 5

# F's bras, outcome -1 first: e0 and -e1 (no probability sees the sign)
_F_ROWS = axis_rows(0.0)

# The three zero-constraint rows lose rank where the volume they span, the
# product of their singular values, falls below this.  That volume is the norm
# of the null vector of _feasible_amplitudes, so zero_constraint_rank,
# feasible_state and grid_probabilities decide rank loss alike.
_RANK_TOL = 1e-12


@dataclass(frozen=True)
class HardyInstance:
    """A two-wing protected-qubit state, its unit-norm coefficients (c00,
    c01, c10, c11) over the products of the wings' basis states, plus the
    finite angles of Alice's and Bob's G; ValueError otherwise."""

    amplitudes: tuple
    alpha_a: float
    alpha_b: float

    def __post_init__(self):
        amps = tuple(complex(a) for a in self.amplitudes)
        if len(amps) != 4:
            raise ValueError("exactly four amplitudes required")
        QuantumState(amps)  # unit norm within ATOL
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "alpha_a", float(self.alpha_a))
        object.__setattr__(self, "alpha_b", float(self.alpha_b))
        check_finite(self.alpha_a, self.alpha_b)


def _coefficient_rows(rows_a, rows_b) -> dict:
    """Real rows of the four Hardy events, keyed by event, from broadcasting
    ``axis_rows`` stacks of Alice's and Bob's G: each event's probability is
    |row . c|^2 for the amplitudes c, the row the Kronecker product of the
    two wings' bras."""
    alice = {"F": _F_ROWS, "G": rows_a}
    bob = {"F": _F_ROWS, "G": rows_b}
    rows = {}
    for sa, sb, oa, ob in ZERO_EVENTS + (POSITIVE_EVENT,):
        row = alice[sa][..., int(oa > 0), :, None] * bob[sb][..., int(ob > 0), None, :]
        rows[sa, sb, oa, ob] = row.reshape(*row.shape[:-2], 4)
    return rows


def hardy_probability(inst: HardyInstance):
    """``(p, residuals)``: the probability of ``POSITIVE_EVENT``, and those of
    the ``ZERO_EVENTS``, which a witness holds at zero, keyed by event."""
    rows = _coefficient_rows(axis_rows(inst.alpha_a), axis_rows(inst.alpha_b))
    c = np.array(inst.amplitudes)
    vals = {event: float(abs(np.dot(row, c)) ** 2) for event, row in rows.items()}
    p = vals.pop(POSITIVE_EVENT)
    return p, vals


def _feasible_amplitudes(rows_a, rows_b) -> np.ndarray:
    """Unit null vectors (ca cb, ca sb, sa cb, 0) / norm of the zero constraints
    from broadcasting ``axis_rows`` stacks of the two angles, or ValueError."""
    ca, sa = rows_a[..., 0, 0], rows_a[..., 0, 1]
    cb, sb = rows_b[..., 0, 0], rows_b[..., 0, 1]
    raw = np.stack(np.broadcast_arrays(ca * cb, ca * sb, sa * cb, 0.0), axis=-1)
    norm = np.linalg.norm(raw, axis=-1, keepdims=True)
    if np.any(norm < _RANK_TOL):
        raise ValueError("the zero constraints lose rank at these angles")
    return raw / norm


def feasible_state(alpha_a: float, alpha_b: float) -> HardyInstance:
    """The unique state satisfying all three zero constraints at these angles.

    Not unique when both angles are pi/2, where the rows lose rank and every
    feasible state has probability zero; raises ValueError there.
    """
    check_finite(alpha_a, alpha_b)
    amps = _feasible_amplitudes(axis_rows(alpha_a), axis_rows(alpha_b))
    return HardyInstance(tuple(amps), alpha_a, alpha_b)


def grid_probabilities(n: int) -> np.ndarray:
    """(n, n) array whose entry (ka, kb) is ``hardy_probability(
    feasible_state(ka * step, kb * step))[0]``, step = pi / (2 n), to a few
    ulps, in one array pass.  ValueError where ``feasible_state`` would, and
    unless n is an integer of at least 1."""
    check_count("n", n)
    step = math.pi / (2 * n)
    rows = np.stack([axis_rows(k * step) for k in range(n)])
    states = _feasible_amplitudes(rows[:, None], rows)
    row = _coefficient_rows(rows[:, None], rows)[POSITIVE_EVENT]
    return (row * states).sum(-1) ** 2


def fixed_angle_maximum(alpha: float) -> float:
    """Largest positive-event probability with both angles fixed at alpha.

    Closed form sin^4(a) cos^2(a) / (1 + sin^2(a)); equals 9/112 at pi/3.
    """
    check_finite(alpha)
    s2 = math.sin(alpha) ** 2
    return s2 * s2 * (1.0 - s2) / (1.0 + s2)


def eta_instance() -> HardyInstance:
    """The two-wing state used throughout, as a protected-qubit instance."""
    return HardyInstance(tuple(ETA_COEFFS.ravel()), math.pi / 3, math.pi / 3)


def to_full_state(inst: HardyInstance) -> QuantumState:
    """Embed the instance into the full eight-qubit amplitude vector."""
    c = np.array(inst.amplitudes).reshape(2, 2)
    return QuantumState((SECTOR @ c @ SECTOR.T).ravel())


# ---------------------------------------------------------------------------
# Local deterministic models, exact arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LhvConstraint:
    """An exact probability assignment for one event over strategies.

    ``predicate`` maps a strategy tuple (f_a, g_a, f_b, g_b) to bool;
    ``probability`` is the exact total weight the event must receive, an int
    or a Fraction in [0, 1]; anything else raises ValueError.
    """

    description: str
    predicate: object
    probability: Fraction

    def __post_init__(self):
        if type(self.probability) not in (int, Fraction) or not 0 <= self.probability <= 1:
            raise ValueError("probability must be an int or a Fraction in [0, 1], "
                             f"got {self.probability!r}")


@dataclass(frozen=True)
class Feasible:
    """A witnessing weight assignment, strategies with zero weight omitted."""

    weights: dict


@dataclass(frozen=True)
class Infeasible:
    certificate: str


def _event_constraint(event: tuple, probability: Fraction) -> LhvConstraint:
    sa, sb, oa, ob = event
    # strategy components are (f_a, g_a, f_b, g_b)
    ia, ib = "FG".index(sa), 2 + "FG".index(sb)
    return LhvConstraint(f"P({sa}_A={oa:+d} and {sb}_B={ob:+d}) = {probability}",
                         lambda s: s[ia] == oa and s[ib] == ob, probability)


def standard_scenario(p_joint: Fraction = P_POSITIVE) -> tuple:
    """The constraints of the Hardy pattern, as the tuple of
    ``LhvConstraint`` that ``lhv_feasibility`` takes: the three zeros, then
    the positive joint event at ``p_joint``."""
    return tuple(_event_constraint(event, Fraction(0)) for event in ZERO_EVENTS
                 ) + (_event_constraint(POSITIVE_EVENT, p_joint),)


def _phase1_simplex(rows, rhs):
    """Exact feasibility of rows @ w = rhs, w >= 0, by phase-1 simplex with
    Bland's rule: the solution list, or None.  It pivots in integers, each
    pivot the Fraction tableau's
    (test_phase1_simplex_matches_the_fraction_tableau).
    """
    m, n = len(rows), len(rows[0])
    scale = math.lcm(*(a.denominator for row in rows for a in row),
                     *(b.denominator for b in rhs))
    tab = []
    for i in range(m):
        sign = -1 if rhs[i] < 0 else 1
        art = [0] * m
        art[i] = 1
        tab.append([int(sign * scale * a) for a in rows[i]] + art
                   + [int(sign * scale * rhs[i])])
    basis = list(range(n, n + m))
    cost = [-sum(col) for col in zip(*tab)]
    for j in range(n, n + m):
        cost[j] += 1
    d = 1
    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                if best is None:
                    best = i
                    continue
                # tab[i][-1] / tab[i][enter] against the best row's ratio
                left = tab[i][-1] * tab[best][enter]
                right = tab[best][-1] * tab[i][enter]
                if left < right or (left == right and basis[i] < basis[best]):
                    best = i
        piv = tab[best]
        p = piv[enter]
        for i in range(m):
            if i != best:
                f = tab[i][enter]
                tab[i] = [(p * a - f * q) // d for a, q in zip(tab[i], piv)]
        f = cost[enter]
        cost = [(p * a - f * q) // d for a, q in zip(cost, piv)]
        basis[best] = enter
        d = p
    if cost[-1] != 0:
        return None
    w = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            w[j] = Fraction(tab[i][-1], d)
    return w


def _strategy_label(s) -> str:
    names = ("f_A", "g_A", "f_B", "g_B")
    return "(" + ", ".join(f"{n}={v:+d}" for n, v in zip(names, s)) + ")"


def lhv_feasibility(constraints: tuple):
    """``Feasible`` with weights over the 16 strategies that meet every
    ``LhvConstraint`` of ``constraints`` and sum to 1, by the exact linear
    program, or ``Infeasible``.  Its certificate walks the forced zeros: each
    zero constraint kills its strategies, and a positive constraint whose
    support is empty or all killed is the contradiction."""
    rows = [[Fraction(int(con.predicate(s))) for s in STRATEGIES]
            for con in constraints]
    rows.append([Fraction(1)] * len(STRATEGIES))
    rhs = [con.probability for con in constraints] + [Fraction(1)]
    w = _phase1_simplex(rows, rhs)
    if w is not None:
        weights = {s: wi for s, wi in zip(STRATEGIES, w) if wi != 0}
        return Feasible(weights=weights)
    dead = set()
    lines = []
    for con in constraints:
        if con.probability != 0:
            continue
        killed = [s for s in STRATEGIES if con.predicate(s) and s not in dead]
        dead.update(killed)
        lines.append(f"{con.description} forces zero weight on "
                     f"{len(killed)} strategies")
    for con in constraints:
        if con.probability == 0:
            continue
        support = [s for s in STRATEGIES if con.predicate(s)]
        if all(s in dead for s in support):
            event = f"the event in '{con.description}'"
            why = (f"every strategy consistent with {event} is already forced "
                   f"to zero weight, for example {_strategy_label(support[0])}"
                   if support else f"no strategy is consistent with {event}")
            lines.append(f"{why}, so the event probability must be 0; the "
                         f"required value {con.probability} is positive")
            return Infeasible(certificate="\n".join(lines))
    return Infeasible(certificate="the exact linear program over strategy "
                                  "weights admits no nonnegative solution")


# ---------------------------------------------------------------------------
# Maximizing the positive-event probability, by reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizationResult:
    probability: float
    instance: HardyInstance
    max_residual: float
    n_feasible: int


def zero_constraint_rank(alpha_a: float, alpha_b: float) -> int:
    """Rank of the three zero-constraint rows at these finite angles: the
    largest k whose k leading singular values multiply to at least
    ``_RANK_TOL``, so it is below 3 exactly where ``feasible_state`` raises,
    which happens only when both angles are pi/2 (mod pi)."""
    check_finite(alpha_a, alpha_b)
    rows = _coefficient_rows(axis_rows(alpha_a), axis_rows(alpha_b))
    s = np.linalg.svd(np.array([rows[e] for e in ZERO_EVENTS]), compute_uv=False)
    return int(np.count_nonzero(np.cumprod(s) >= _RANK_TOL))


def optimize_constrained(alpha: float = math.pi / 3, n_starts: int = 64,
                         seed=0) -> OptimizationResult:
    """The largest positive-event probability at a common angle alpha: that
    of the feasible state, unique up to phase, 9/112 at pi/3.  ValueError
    where the rank drops.  ``n_starts`` and ``seed`` are unused, kept while
    the benchmark passes them (ROADMAP item 1,
    test_benchmark_calls_match_the_package).
    """
    inst = feasible_state(alpha, alpha)
    p, residuals = hardy_probability(inst)
    return OptimizationResult(p, inst, max(residuals.values()), 1)


def optimize_unconstrained_measurements(n_starts: int = 64, seed=0) -> OptimizationResult:
    """The largest positive-event probability over both angles: the
    fixed-angle optimum at sin^2(alpha) = (sqrt 5 - 1)/2, probability
    ((sqrt 5 - 1)/2)^5 (test_exact_certificate_of_both_optima).
    ``n_starts`` and ``seed`` are unused and kept as in
    ``optimize_constrained``."""
    return optimize_constrained(math.asin(math.sqrt(FREE_OPTIMAL_SIN_SQ)))
