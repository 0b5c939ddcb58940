"""Hardy-type logic on the two-wing singlet sectors.

Each wing carries a protected qubit spanned by the wing's two singlet-sector
basis states.  Alice and Bob each choose between the fixed observable F and
a rotated one G, whose bras are the rows of ``axis_rows`` at 0 and alpha.  A
state is a Hardy witness when the three joint probabilities of
``ZERO_EVENTS`` vanish exactly while that of ``POSITIVE_EVENT`` stays
positive; on the shared state it is ``P_POSITIVE`` = 9/112.

Any local deterministic model satisfying the three zeros is forced to assign
zero weight to every strategy consistent with the fourth event, so a positive
fourth probability has no local account.  ``lhv_feasibility`` certifies this
in exact rational arithmetic.

The three zeros are real linear rows on the amplitudes c in C^4, of rank 3
unless both angles are pi/2, so the feasible state is unique up to phase
(``feasible_state``).  With x = sin^2(alpha_a), y = sin^2(alpha_b) its fourth
probability is P = x (1 - x) y (1 - y) / (1 - x y).  P is 0 on the whole
boundary of the unit square and its only interior stationary point is
x = y = (sqrt 5 - 1)/2, so both optima, at a fixed angle and with the angles
free, are closed form and need no search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dfs_states import ETA_COEFFS, SECTOR
from .qcore import QuantumState, axis_rows, check_count

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
    """A two-wing protected-qubit state plus the two rotated-observable angles.

    Parameters
    ----------
    amplitudes : tuple of 4 complex
        Coefficients (c00, c01, c10, c11) over the product of per-wing basis
        states, normalized to unit length.
    alpha_a, alpha_b : float
        Rotation angles of Alice's and Bob's second observable.
    """

    amplitudes: tuple
    alpha_a: float
    alpha_b: float

    def __post_init__(self):
        amps = tuple(complex(a) for a in self.amplitudes)
        if len(amps) != 4:
            raise ValueError("exactly four amplitudes required")
        norm = math.fsum(abs(a) ** 2 for a in amps)
        if not abs(norm - 1.0) <= 1e-8:
            raise ValueError(f"amplitudes must be normalized, got norm^2 = {norm}")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "alpha_a", float(self.alpha_a))
        object.__setattr__(self, "alpha_b", float(self.alpha_b))
        if not (math.isfinite(self.alpha_a) and math.isfinite(self.alpha_b)):
            raise ValueError(f"angles must be finite, got {self.alpha_a}, {self.alpha_b}")


def _coefficient_rows(alpha_a: float, alpha_b: float) -> dict:
    """Real coefficient vectors of the four Hardy events, keyed by event.

    Each event's probability is |row . c|^2 where c are the instance
    amplitudes; the row is the Kronecker product of the two wings' bras
    (outcome -1 first in each wing's rows).
    """
    alice = {"F": _F_ROWS, "G": axis_rows(alpha_a)}
    bob = {"F": _F_ROWS, "G": axis_rows(alpha_b)}
    return {
        (sa, sb, oa, ob): np.multiply.outer(alice[sa][int(oa > 0)],
                                            bob[sb][int(ob > 0)]).ravel()
        for sa, sb, oa, ob in ZERO_EVENTS + (POSITIVE_EVENT,)
    }


def hardy_probability(inst: HardyInstance):
    """The positive-event probability and the three zero-constraint residuals.

    Returns
    -------
    (float, dict)
        The probability of ``POSITIVE_EVENT``, and the residual joint
        probabilities that a Hardy witness must hold at zero, keyed by the
        events of ``ZERO_EVENTS``.
    """
    rows = _coefficient_rows(inst.alpha_a, inst.alpha_b)
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
    amps = _feasible_amplitudes(axis_rows(alpha_a), axis_rows(alpha_b))
    return HardyInstance(tuple(amps), alpha_a, alpha_b)


def grid_probabilities(n: int) -> np.ndarray:
    """Positive-event probability of the feasible state at every grid pair.

    Entry (ka, kb) is ``hardy_probability(feasible_state(ka * step, kb *
    step))[0]`` with step = pi / (2 n), to a few ulps, in one array pass: the
    feasible states of every pair as ``feasible_state`` builds them, from the
    n ``axis_rows``, and the event's amplitude as one einsum of its own rows.
    Raises ValueError where ``feasible_state`` would, and unless n is an
    integer of at least 1.
    """
    check_count("n", n)
    step = math.pi / (2 * n)
    rows = np.stack([axis_rows(k * step) for k in range(n)])
    states = _feasible_amplitudes(rows[:, None], rows).reshape(n, n, 2, 2)
    wing = {"F": np.broadcast_to(_F_ROWS, rows.shape), "G": rows}
    sa, sb, oa, ob = POSITIVE_EVENT
    amp = np.einsum("ai,bj,abij->ab", wing[sa][:, int(oa > 0)],
                    wing[sb][:, int(ob > 0)], states)
    return amp ** 2


def fixed_angle_maximum(alpha: float) -> float:
    """Largest positive-event probability with both angles fixed at alpha.

    Closed form sin^4(a) cos^2(a) / (1 + sin^2(a)); equals 9/112 at pi/3.
    """
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
class LhvScenario:
    constraints: tuple


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


def standard_scenario(p_joint: Fraction = P_POSITIVE) -> LhvScenario:
    """The three Hardy zeros plus a positive joint probability."""
    return LhvScenario(constraints=tuple(
        _event_constraint(event, Fraction(0)) for event in ZERO_EVENTS
    ) + (_event_constraint(POSITIVE_EVENT, p_joint),))


def _phase1_simplex(rows, rhs):
    """Exact feasibility of rows @ w = rhs, w >= 0, by phase-1 simplex.

    Bland's rule on an integer-preserving (Edmonds-Bareiss) tableau.  Rows
    and right-hand sides are scaled by the lcm of their denominators and the
    artificial columns kept at I: a positive scaling of columns and of the
    objective, which moves no sign, ratio order or tie, so every pivot is
    the Fraction tableau's.  The stored integers over the last pivot d are
    that tableau, each pivot updates a row as (p a - f q) // d, exactly, and
    the ratio test cross-multiplies.  Returns the solution list or None.
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


def lhv_feasibility(scenario: LhvScenario):
    """Decide whether any local deterministic weighting meets the scenario.

    Solves the exact linear program over the 16 strategy weights (the
    constraints plus normalization).  On infeasibility the certificate walks
    the forced-zero propagation: each zero constraint kills its consistent
    strategies, and a positive constraint whose support is fully killed is
    the contradiction.

    Returns
    -------
    Feasible or Infeasible
    """
    rows = [[Fraction(int(con.predicate(s))) for s in STRATEGIES]
            for con in scenario.constraints]
    rows.append([Fraction(1)] * len(STRATEGIES))
    rhs = [con.probability for con in scenario.constraints] + [Fraction(1)]
    w = _phase1_simplex(rows, rhs)
    if w is not None:
        weights = {s: wi for s, wi in zip(STRATEGIES, w) if wi != 0}
        return Feasible(weights=weights)
    dead = set()
    lines = []
    for con in scenario.constraints:
        if con.probability != 0:
            continue
        killed = [s for s in STRATEGIES if con.predicate(s) and s not in dead]
        dead.update(killed)
        lines.append(f"{con.description} forces zero weight on "
                     f"{len(killed)} strategies")
    for con in scenario.constraints:
        if con.probability == 0:
            continue
        support = [s for s in STRATEGIES if con.predicate(s)]
        if all(s in dead for s in support):
            lines.append(
                f"every strategy consistent with the event in "
                f"'{con.description}' is already forced to zero weight, "
                f"for example {_strategy_label(support[0])}, so the event "
                f"probability must be 0; the required value "
                f"{con.probability} is positive")
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
    """Rank of the three zero-constraint rows at these angles.

    The largest k whose k leading singular values multiply to at least
    ``_RANK_TOL``; at k = 3 that product is the volume the rows span, so the
    rank is below 3 exactly where ``feasible_state`` raises.  Rank 3 makes
    the feasible state unique up to phase; the rank drops only when both
    angles are pi/2.
    """
    rows = _coefficient_rows(alpha_a, alpha_b)
    s = np.linalg.svd(np.array([rows[e] for e in ZERO_EVENTS]), compute_uv=False)
    return int(np.count_nonzero(np.cumprod(s) >= _RANK_TOL))


def optimize_constrained(alpha: float = math.pi / 3, n_starts: int = 64,
                         seed=0) -> OptimizationResult:
    """Maximize the positive-event probability at a fixed common angle.

    With rank-3 zero constraints the feasible state is unique up to phase,
    so it is the maximizer: no search is needed (the result reports one
    feasible point).  At alpha = pi/3 the optimum is 9/112.  Where the rank
    drops (alpha = pi/2 mod pi), ``feasible_state`` raises ValueError.
    ``n_starts`` and ``seed`` are unused, kept while the benchmark passes
    them (ROADMAP item 1, test_benchmark_calls_match_the_package).
    """
    inst = feasible_state(alpha, alpha)
    p, residuals = hardy_probability(inst)
    return OptimizationResult(p, inst, max(residuals.values()), 1)


def optimize_unconstrained_measurements(n_starts: int = 64, seed=0) -> OptimizationResult:
    """Maximize over both angles, the state following as the feasible state.

    P = x (1 - x) y (1 - y) / (1 - x y) is 0 on the whole boundary of the
    square of x = sin^2(alpha_a), y = sin^2(alpha_b), and its only interior
    stationary point is x = y = (sqrt 5 - 1)/2 (the exact certificate is in
    the tests), so that point is the maximum: the fixed-angle optimum at
    sin^2(alpha) = (sqrt 5 - 1)/2, probability ((sqrt 5 - 1)/2)^5.  No search
    is needed (the result reports one feasible point); ``n_starts`` and
    ``seed`` are unused and kept as in ``optimize_constrained``.
    """
    return optimize_constrained(math.asin(math.sqrt(FREE_OPTIMAL_SIN_SQ)))
