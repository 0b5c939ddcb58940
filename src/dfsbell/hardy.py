"""Hardy-type logic on the two-wing singlet sectors.

Each wing carries a protected qubit spanned by the wing's two singlet-sector
basis states.  Alice and Bob each choose between the fixed observable
(outcome -1 on the first basis state) and a rotated one at angle alpha.  A
state is a Hardy witness when three joint probabilities vanish exactly while
a fourth stays positive:

    P(F_A=+1 and F_B=+1) = 0
    P(F_A=-1 and G_B=+1) = 0
    P(G_A=+1 and F_B=-1) = 0
    P(G_A=+1 and G_B=+1) > 0

Any local deterministic model satisfying the three zeros is forced to assign
zero weight to every strategy consistent with the fourth event, so a positive
fourth probability has no local account.  ``lhv_feasibility`` certifies this
in exact rational arithmetic; the optimizers find the largest attainable
fourth probability, with the measurement angle fixed or free.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import minimize

from .dfs_states import dfs_embed, DfsVector
from .qcore import ATOL, QuantumState, tensor

# All four-outcome deterministic strategies (f_a, g_a, f_b, g_b).
STRATEGIES = tuple(itertools.product((-1, +1), repeat=4))

# Golden-ratio constants of the angle-free optimum: with t = (sqrt 5 - 1)/2
# the best angle has sin^2(alpha) = t and the probability equals t^5.
FREE_OPTIMAL_SIN_SQ = (math.sqrt(5.0) - 1.0) / 2.0
FREE_MAXIMUM = FREE_OPTIMAL_SIN_SQ ** 5


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
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"amplitudes must be normalized, got norm^2 = {norm}")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "alpha_a", float(self.alpha_a))
        object.__setattr__(self, "alpha_b", float(self.alpha_b))


def _coefficient_rows(alpha_a: float, alpha_b: float) -> dict:
    """Real coefficient vectors of the four projected amplitudes.

    Each quantity is |row . c|^2 where c are the instance amplitudes.  The +1
    eigenvector of the rotated observable is sin(a) e0 - cos(a) e1 per wing;
    the -1 eigenvector of the fixed observable is e0.
    """
    sa, ca = math.sin(alpha_a), math.cos(alpha_a)
    sb, cb = math.sin(alpha_b), math.cos(alpha_b)
    return {
        "ff_plus_plus": np.array([0.0, 0.0, 0.0, 1.0]),
        "fa_minus_gb_plus": np.array([sb, -cb, 0.0, 0.0]),
        "ga_plus_fb_minus": np.array([sa, 0.0, -ca, 0.0]),
        "gg_plus_plus": np.array([sa * sb, -sa * cb, -ca * sb, ca * cb]),
    }


def hardy_probability(inst: HardyInstance):
    """The positive-event probability and the three zero-constraint residuals.

    Returns
    -------
    (float, dict)
        P(G_A=+1 and G_B=+1), and the residual joint probabilities that a
        Hardy witness must hold at zero, keyed by event name.
    """
    rows = _coefficient_rows(inst.alpha_a, inst.alpha_b)
    c = np.array(inst.amplitudes)
    vals = {k: float(abs(np.dot(row, c)) ** 2) for k, row in rows.items()}
    p = vals.pop("gg_plus_plus")
    return p, vals


def feasible_state(alpha_a: float, alpha_b: float) -> HardyInstance:
    """The unique state satisfying all three zero constraints at these angles.

    Undefined when both angles are pi/2 (the constraints then force the zero
    vector); raises ValueError there.
    """
    sa, ca = math.sin(alpha_a), math.cos(alpha_a)
    sb, cb = math.sin(alpha_b), math.cos(alpha_b)
    raw = np.array([ca * cb, ca * sb, sa * cb, 0.0])
    norm = np.linalg.norm(raw)
    if norm < 1e-12:
        raise ValueError("no nonzero state satisfies the constraints at these angles")
    return HardyInstance(tuple(raw / norm), alpha_a, alpha_b)


def fixed_angle_maximum(alpha: float) -> float:
    """Largest positive-event probability with both angles fixed at alpha.

    Closed form sin^4(a) cos^2(a) / (1 + sin^2(a)); equals 9/112 at pi/3.
    """
    s2 = math.sin(alpha) ** 2
    return s2 * s2 * (1.0 - s2) / (1.0 + s2)


def eta_instance() -> HardyInstance:
    """The two-wing state used throughout, as a protected-qubit instance."""
    n = 1.0 / math.sqrt(7.0)
    r3 = math.sqrt(3.0)
    return HardyInstance((n, r3 * n, r3 * n, 0.0), math.pi / 3, math.pi / 3)


def to_full_state(inst: HardyInstance) -> QuantumState:
    """Embed the instance into the full eight-qubit amplitude vector."""
    e0 = dfs_embed(DfsVector(1.0, 0.0))
    e1 = dfs_embed(DfsVector(0.0, 1.0))
    wings = (e0, e1)
    amps = np.zeros(256, dtype=complex)
    for (i, j), c in zip(itertools.product(range(2), repeat=2), inst.amplitudes):
        amps += c * tensor(wings[i], wings[j]).amplitudes
    return QuantumState(amps)


# ---------------------------------------------------------------------------
# Local deterministic models, exact arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LhvConstraint:
    """An exact probability assignment for one event over strategies.

    ``predicate`` maps a strategy tuple (f_a, g_a, f_b, g_b) to bool;
    ``probability`` is the exact total weight the event must receive.
    """

    description: str
    predicate: object
    probability: Fraction


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


def standard_scenario(p_joint: Fraction = Fraction(9, 112)) -> LhvScenario:
    """The three Hardy zeros plus a positive joint probability."""
    return LhvScenario(constraints=(
        LhvConstraint("P(F_A=+1 and F_B=+1) = 0",
                      lambda s: s[0] == +1 and s[2] == +1, Fraction(0)),
        LhvConstraint("P(F_A=-1 and G_B=+1) = 0",
                      lambda s: s[0] == -1 and s[3] == +1, Fraction(0)),
        LhvConstraint("P(G_A=+1 and F_B=-1) = 0",
                      lambda s: s[1] == +1 and s[2] == -1, Fraction(0)),
        LhvConstraint(f"P(G_A=+1 and G_B=+1) = {p_joint}",
                      lambda s: s[1] == +1 and s[3] == +1, p_joint),
    ))


def _phase1_simplex(rows, rhs):
    """Exact feasibility of rows @ w = rhs, w >= 0, by phase-1 simplex.

    Bland's rule, Fraction arithmetic throughout.  Returns the solution list
    or None.
    """
    m, n = len(rows), len(rows[0])
    tab = []
    for i in range(m):
        row, b = list(rows[i]), rhs[i]
        if b < 0:
            row, b = [-a for a in row], -b
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        tab.append(row + art + [b])
    basis = list(range(n, n + m))
    cost = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        for j in range(n + m + 1):
            cost[j] -= tab[i][j]
    for j in range(n, n + m):
        cost[j] += Fraction(1)
    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best[0] or \
                        (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        piv = best[1]
        pivval = tab[piv][enter]
        tab[piv] = [a / pivval for a in tab[piv]]
        for i in range(m):
            if i != piv and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * p for a, p in zip(tab[i], tab[piv])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [a - f * p for a, p in zip(cost, tab[piv])]
        basis[piv] = enter
    if -cost[-1] != 0:
        return None
    w = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            w[j] = tab[i][-1]
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
# Numerical optimization of the positive-event probability
# ---------------------------------------------------------------------------

class OptimizationError(RuntimeError):
    """No start produced a feasible optimum; carries the best attempt seen."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class OptimizationResult:
    probability: float
    instance: HardyInstance
    max_residual: float
    n_feasible: int
    n_starts: int


def _pack_quantity(c, coef, z=None):
    # value |coef . c|^2 and its gradient over (re c, im c)
    if z is None:
        z = np.dot(coef, c)
    val = abs(z) ** 2
    zbar = np.conj(z)
    return val, np.concatenate([2.0 * np.real(zbar * coef),
                                -2.0 * np.imag(zbar * coef)])


def _angle_grads(c, coef_da, coef_db, z):
    zbar = np.conj(z)
    return (2.0 * np.real(zbar * np.dot(coef_da, c)),
            2.0 * np.real(zbar * np.dot(coef_db, c)))


def _build_problem(free_angles: bool, alpha: float):
    """Objective and constraints with analytic gradients for SLSQP.

    Parameter vector: 8 reals (re c, im c), plus (alpha_a, alpha_b) when the
    angles are free.
    """
    n_par = 10 if free_angles else 8

    def split(x):
        c = x[:4] + 1j * x[4:8]
        if free_angles:
            return c, x[8], x[9]
        return c, alpha, alpha

    def rows_and_derivs(aa, ab):
        sa, ca = math.sin(aa), math.cos(aa)
        sb, cb = math.sin(ab), math.cos(ab)
        return {
            "ff_plus_plus": (np.array([0.0, 0.0, 0.0, 1.0]), np.zeros(4), np.zeros(4)),
            "fa_minus_gb_plus": (np.array([sb, -cb, 0.0, 0.0]),
                                 np.zeros(4),
                                 np.array([cb, sb, 0.0, 0.0])),
            "ga_plus_fb_minus": (np.array([sa, 0.0, -ca, 0.0]),
                                 np.array([ca, 0.0, sa, 0.0]),
                                 np.zeros(4)),
            "gg_plus_plus": (np.array([sa * sb, -sa * cb, -ca * sb, ca * cb]),
                             np.array([ca * sb, -ca * cb, sa * sb, -sa * cb]),
                             np.array([sa * cb, sa * sb, -ca * cb, -ca * sb])),
        }

    def quantity(x, name, sign=1.0):
        c, aa, ab = split(x)
        coef, dca, dcb = rows_and_derivs(aa, ab)[name]
        z = np.dot(coef, c)
        val, grad_c = _pack_quantity(c, coef, z)
        grad = np.zeros(n_par)
        grad[:8] = grad_c
        if free_angles:
            grad[8], grad[9] = _angle_grads(c, dca, dcb, z)
        return sign * val, sign * grad

    def norm_constraint(x):
        return float(np.dot(x[:8], x[:8])) - 1.0

    def norm_jac(x):
        g = np.zeros(n_par)
        g[:8] = 2.0 * x[:8]
        return g

    constraints = [dict(type="eq", fun=norm_constraint, jac=norm_jac)]
    for name in ("ff_plus_plus", "fa_minus_gb_plus", "ga_plus_fb_minus"):
        constraints.append(dict(
            type="eq",
            fun=lambda x, n=name: quantity(x, n)[0],
            jac=lambda x, n=name: quantity(x, n)[1],
        ))

    def objective(x):
        return quantity(x, "gg_plus_plus", sign=-1.0)

    bounds = None
    if free_angles:
        bounds = [(None, None)] * 8 + [(0.0, math.pi / 2)] * 2
    return objective, constraints, bounds, split


def _optimize(free_angles: bool, alpha: float, n_starts: int, seed) -> OptimizationResult:
    rng = np.random.default_rng(seed)
    objective, constraints, bounds, split = _build_problem(free_angles, alpha)
    best = None
    best_any = None
    n_feasible = 0
    for _ in range(n_starts):
        x0 = rng.normal(size=10 if free_angles else 8)
        x0[:8] /= np.linalg.norm(x0[:8])
        if free_angles:
            x0[8:] = rng.uniform(0.05, math.pi / 2 - 0.05, size=2)
        res = minimize(objective, x0, jac=True, method="SLSQP",
                       constraints=constraints, bounds=bounds,
                       options=dict(maxiter=400, ftol=1e-14))
        c, aa, ab = split(res.x)
        norm = np.linalg.norm(c)
        if norm < 1e-6:
            continue
        inst = HardyInstance(tuple(c / norm), aa, ab)
        p, residuals = hardy_probability(inst)
        viol = max(max(residuals.values()), abs(norm - 1.0))
        candidate = OptimizationResult(p, inst, viol, 0, n_starts)
        if best_any is None or p > best_any.probability:
            best_any = candidate
        if viol <= 1e-9:
            n_feasible += 1
            if best is None or p > best.probability:
                best = candidate
    if best is None:
        raise OptimizationError(
            f"no feasible optimum in {n_starts} starts", best=best_any)
    return OptimizationResult(best.probability, best.instance,
                              best.max_residual, n_feasible, n_starts)


def optimize_constrained(alpha: float = math.pi / 3, n_starts: int = 64,
                         seed=0) -> OptimizationResult:
    """Maximize the positive-event probability at a fixed common angle.

    Multistart SLSQP over the normalized complex state, with the three zero
    constraints imposed exactly.  At alpha = pi/3 the optimum is 9/112.
    """
    return _optimize(False, alpha, n_starts, seed)


def optimize_unconstrained_measurements(n_starts: int = 64, seed=0) -> OptimizationResult:
    """Maximize over the state and both angles jointly.

    The optimum is the golden-ratio point: sin^2(alpha) = (sqrt 5 - 1)/2 on
    both wings, probability ((sqrt 5 - 1)/2)^5.
    """
    return _optimize(True, 0.0, n_starts, seed)
