import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dfsbell import hardy
from dfsbell.hardy import (FREE_MAXIMUM, FREE_OPTIMAL_SIN_SQ, STRATEGIES,
                           ZERO_EVENTS, Feasible, HardyInstance, Infeasible,
                           LhvConstraint, _coefficient_rows,
                           eta_instance, feasible_state,
                           fixed_angle_maximum, grid_probabilities,
                           hardy_probability,
                           lhv_feasibility, optimize_constrained,
                           optimize_unconstrained_measurements,
                           standard_scenario, to_full_state,
                           zero_constraint_rank)
from dfsbell.dfs_states import ETA_INT


def test_eta_instance_probabilities():
    p, residuals = hardy_probability(eta_instance())
    assert abs(p - 9.0 / 112.0) < 1e-12
    assert all(r < 1e-12 for r in residuals.values())


def test_to_full_state_matches_eta():
    # the float embedding of the 2x2 model against the integer 4 sqrt7 eta
    full = to_full_state(eta_instance()).amplitudes
    assert np.abs(full * (4 * math.sqrt(7)) - ETA_INT).max() < 1e-12


def test_feasible_state_satisfies_the_zeros():
    rng = np.random.default_rng(62)
    for _ in range(10):
        aa, ab = rng.uniform(0.05, math.pi / 2 - 0.05, size=2)
        _, residuals = hardy_probability(feasible_state(aa, ab))
        assert all(r < 1e-15 for r in residuals.values())


def test_feasible_state_is_the_null_vector_of_the_zero_events():
    # the hand-written vector against the SVD null vector of the ZERO_EVENTS
    # rows, so an edit of the event table cannot leave it behind
    angles = (np.arange(16) + 0.5) * (math.pi / 32)
    for aa in angles:
        for ab in angles:
            rows = _coefficient_rows(aa, ab)
            null = np.linalg.svd(np.array([rows[e] for e in ZERO_EVENTS]))[2][-1]
            c = np.array(feasible_state(aa, ab).amplitudes)
            assert abs(abs(np.dot(null, c)) - 1.0) < 1e-12, (aa, ab)


def test_feasible_state_equal_angles_reaches_the_curve():
    for alpha in (0.4, math.pi / 3, 1.2):
        p, _ = hardy_probability(feasible_state(alpha, alpha))
        assert abs(p - fixed_angle_maximum(alpha)) < 1e-12


def test_feasible_state_degenerate_angles():
    with pytest.raises(ValueError):
        feasible_state(math.pi / 2, math.pi / 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_angles_that_are_not_finite_are_refused_as_angles(bad):
    for call in (lambda: feasible_state(bad, 0.3),
                 lambda: zero_constraint_rank(0.1, bad),
                 lambda: optimize_constrained(bad)):
        with pytest.raises(ValueError, match="angles must be finite"):
            call()


def test_zero_constraint_rank():
    rng = np.random.default_rng(63)
    for aa, ab in rng.uniform(0.0, math.pi / 2, size=(20, 2)):
        assert zero_constraint_rank(aa, ab) == 3
    assert zero_constraint_rank(math.pi / 2, 0.7) == 3
    assert zero_constraint_rank(math.pi / 2, math.pi / 2) < 3
    # near pi/2 and 3pi/2, within 4 ulps and across the edge of the band of
    # lost rank (about 3,200 ulps either side of pi/2, 796 of 3pi/2): the
    # rank is below 3 exactly where feasible_state raises, and the optimizer
    # refuses through that raise
    def raises(alpha_a, alpha_b):
        try:
            feasible_state(alpha_a, alpha_b)
        except ValueError:
            return True
        return False

    ulps = (*range(-4, 5), -4000, -3000, -800, -790, 790, 800, 3000, 4000)
    near = [centre + k * math.ulp(centre) for centre in (math.pi / 2, 3 * math.pi / 2)
            for k in ulps]
    lost = [a for a in near if zero_constraint_rank(a, a) < 3]
    assert math.pi / 2 in lost and 3 * math.pi / 2 in lost
    assert 4.712388980384688 in lost and 4.7123889803846915 in lost
    assert 0 < len(lost) < len(near)
    for aa in near:
        for ab in near:
            assert (zero_constraint_rank(aa, ab) < 3) == raises(aa, ab), (aa, ab)
    for alpha in lost:
        with pytest.raises(ValueError):
            optimize_constrained(alpha=alpha)


def test_exact_certificate_of_both_optima():
    """The three zeros are real linear rows on the amplitudes c in C^4, of rank
    3 unless both angles are pi/2, so the feasible state is unique up to phase
    (``feasible_state``).  With x = sin^2(alpha_a), y = sin^2(alpha_b) its
    fourth probability is P = x (1 - x) y (1 - y) / (1 - x y).  P is 0 on the
    whole boundary of the unit square and its only interior stationary point is
    x = y = (sqrt 5 - 1)/2, so both optima, at a fixed angle and with the
    angles free, are closed form and need no search.
    """
    sp = pytest.importorskip("sympy")
    a, b = sp.symbols("alpha_a alpha_b", positive=True)
    x, y, t = sp.symbols("x y t", positive=True)
    sa, ca, sb, cb = sp.sin(a), sp.cos(a), sp.sin(b), sp.cos(b)
    # feasible_state and the rows of the four events, before normalization
    c = sp.Matrix([ca * cb, ca * sb, sa * cb, 0])
    zero_rows = ([0, 0, 0, 1], [sb, -cb, 0, 0], [sa, 0, -ca, 0])
    assert all(sp.simplify(sp.Matrix([row]).dot(c)) == 0 for row in zero_rows)
    gg = sp.Matrix([[sa * sb, -sa * cb, -ca * sb, ca * cb]]).dot(c)
    p_trig = gg ** 2 / c.dot(c)
    p_xy = x * (1 - x) * y * (1 - y) / (1 - x * y)
    on_angles = p_xy.subs({x: sa ** 2, y: sb ** 2})
    assert sp.simplify(sp.expand_trig(p_trig - on_angles)) == 0
    for aa, ab in ((0.3, 1.1), (math.pi / 3, math.pi / 3), (1.4, 0.2)):
        inst = feasible_state(aa, ab)
        assert abs(float(p_trig.subs({a: aa, b: ab}))
                   - hardy_probability(inst)[0]) < 1e-14
    # alpha = pi/3 on both wings gives 9/112 exactly
    assert p_xy.subs({x: sp.Rational(3, 4), y: sp.Rational(3, 4)}) \
        == sp.Rational(9, 112)
    assert sp.nsimplify(p_trig.subs({a: sp.pi / 3, b: sp.pi / 3})) \
        == sp.Rational(9, 112)
    # on the diagonal the only stationary point in (0, 1) is t^2 + t - 1 = 0
    diag = p_xy.subs({x: t, y: t})
    numerator = sp.factor(sp.numer(sp.together(sp.diff(diag, t))))
    assert sp.rem(numerator, t ** 2 + t - 1, t) == 0
    roots = [r for r in sp.solve(numerator, t) if 0 < r < 1]
    assert roots == [(sp.sqrt(5) - 1) / 2]
    peak = sp.radsimp(sp.simplify(diag.subs(t, roots[0])))
    assert sp.simplify(peak - (5 * sp.sqrt(5) - 11) / 2) == 0
    assert abs(float(peak) - FREE_MAXIMUM) < 1e-15
    # P is 0 on every edge of the unit square; P <= x (1 - x) since
    # 1 - y <= 1 - xy, so it also tends to 0 at the corner (1, 1)
    assert all(sp.simplify(p_xy.subs(v, e)) == 0 for v in (x, y) for e in (0, 1))
    # and off the diagonal the gradient vanishes nowhere else in (0, 1)^2
    grad = [sp.numer(sp.together(sp.diff(p_xy, v))) for v in (x, y)]
    inside = [s for s in sp.solve(grad, [x, y], dict=True)
              if all(v.is_real and 0 < v < 1 for v in s.values())]
    assert inside == [{x: roots[0], y: roots[0]}]


def test_fixed_angle_maximum_curve():
    assert abs(fixed_angle_maximum(math.pi / 3) - 9.0 / 112.0) < 1e-15
    assert fixed_angle_maximum(0.0) == 0.0
    # the curve peaks at the golden-ratio angle
    alpha_star = math.asin(math.sqrt(FREE_OPTIMAL_SIN_SQ))
    assert abs(fixed_angle_maximum(alpha_star) - FREE_MAXIMUM) < 1e-12
    grid = np.linspace(0.0, math.pi / 2, 2001)
    assert max(fixed_angle_maximum(a) for a in grid) <= FREE_MAXIMUM + 1e-9


def test_relative_phases_break_the_constraints():
    base = feasible_state(0.9, 0.7)
    c = np.array(base.amplitudes)
    c[1] *= np.exp(0.3j)
    phased = HardyInstance(tuple(c), 0.9, 0.7)
    _, residuals = hardy_probability(phased)
    assert residuals[("F", "G", -1, +1)] > 1e-4


def test_instance_validation():
    with pytest.raises(ValueError):
        HardyInstance((1.0, 0.0, 0.0), 0.1, 0.1)
    with pytest.raises(ValueError):
        HardyInstance((1.0, 1.0, 0.0, 0.0), 0.1, 0.1)


def test_optimize_constrained_recovers_the_known_point():
    res = optimize_constrained(n_starts=8, seed=101)
    assert abs(res.probability - 9.0 / 112.0) < 1e-9
    assert res.max_residual < 1e-9
    assert res.n_feasible > 0
    # optimum state equals the shared state's coefficients up to phase
    c = np.array(res.instance.amplitudes)
    c *= np.exp(-1j * np.angle(c[0]))
    target = np.array([1.0, math.sqrt(3), math.sqrt(3), 0.0]) / math.sqrt(7)
    assert np.linalg.norm(c - target) < 1e-6


def test_optimize_constrained_other_angle():
    res = optimize_constrained(alpha=0.9, n_starts=8, seed=102)
    assert abs(res.probability - fixed_angle_maximum(0.9)) < 1e-9


def test_optimize_free_angles_recovers_golden_point():
    res = optimize_unconstrained_measurements(n_starts=8, seed=103)
    assert abs(res.probability - FREE_MAXIMUM) < 1e-12
    assert res.max_residual < 1e-9
    assert res.n_feasible == 1
    assert math.sin(res.instance.alpha_a) ** 2 == pytest.approx(
        FREE_OPTIMAL_SIN_SQ, abs=1e-12)
    assert math.sin(res.instance.alpha_b) ** 2 == pytest.approx(
        FREE_OPTIMAL_SIN_SQ, abs=1e-12)


def test_lhv_standard_scenario_is_infeasible():
    """Any local deterministic model satisfying the three zeros is forced to
    assign zero weight to every strategy consistent with the fourth event, so a
    positive fourth probability has no local account.  ``lhv_feasibility``
    certifies this in exact rational arithmetic.
    """
    verdict = lhv_feasibility(standard_scenario())
    assert isinstance(verdict, Infeasible)
    assert "forces zero weight" in verdict.certificate
    assert "9/112 is positive" in verdict.certificate


def test_lhv_zero_joint_control_is_feasible():
    verdict = lhv_feasibility(standard_scenario(p_joint=Fraction(0)))
    assert isinstance(verdict, Feasible)
    assert verdict.weights == {(-1, -1, -1, -1): Fraction(1)}
    # re-verify the returned weights against every constraint, exactly
    scenario = standard_scenario(p_joint=Fraction(0))
    total = sum(verdict.weights.values())
    assert total == 1
    for con in scenario:
        mass = sum(w for s, w in verdict.weights.items() if con.predicate(s))
        assert mass == con.probability


def test_lhv_any_positive_joint_is_infeasible():
    # the contradiction does not depend on the particular value 9/112
    verdict = lhv_feasibility(standard_scenario(p_joint=Fraction(1, 1000)))
    assert isinstance(verdict, Infeasible)
    # nor on its size, up to the end of the interval, given as an int
    assert isinstance(lhv_feasibility(standard_scenario(p_joint=1)), Infeasible)


@pytest.mark.parametrize("p", [-1, 2, Fraction(3, 2), 0.5, True, None])
def test_lhv_probabilities_are_exact_and_in_the_unit_interval(p):
    # before, -1, 2 and 3/2 gave Infeasible with "the required value -1 is
    # positive", and 0.5 an AttributeError inside the exact solve
    with pytest.raises(ValueError, match="probability must be"):
        standard_scenario(p_joint=p)


def test_lhv_feasible_scenario_with_positive_probability():
    scenario = (
        LhvConstraint("P(f_A=+1) = 1/2", lambda s: s[0] == +1, Fraction(1, 2)),
        LhvConstraint("P(g_B=+1) = 1/3", lambda s: s[3] == +1, Fraction(1, 3)),
    )
    verdict = lhv_feasibility(scenario)
    assert isinstance(verdict, Feasible)
    mass = sum(w for s, w in verdict.weights.items() if s[0] == +1)
    assert mass == Fraction(1, 2)
    # the pivots are Bland's, so the witness is pinned
    assert verdict.weights == {(-1, -1, -1, -1): Fraction(1, 6),
                               (-1, -1, -1, 1): Fraction(1, 3),
                               (1, -1, -1, -1): Fraction(1, 2)}


def _fraction_simplex(rows, rhs):
    # reference: the same phase-1 simplex and Bland's rule on a Fraction
    # tableau, each pivot row divided through by its pivot
    m, n = len(rows), len(rows[0])
    tab = []
    for i in range(m):
        sign = -1 if rhs[i] < 0 else 1
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        tab.append([sign * a for a in rows[i]] + art + [sign * rhs[i]])
    basis = list(range(n, n + m))
    cost = [-sum(col) for col in zip(*tab)]
    for j in range(n, n + m):
        cost[j] += 1
    while (enter := next((j for j in range(n + m) if cost[j] < 0), None)) is not None:
        rows_in = [i for i in range(m) if tab[i][enter] > 0]
        piv = min(rows_in, key=lambda i: (tab[i][-1] / tab[i][enter], basis[i]))
        tab[piv] = [a / tab[piv][enter] for a in tab[piv]]
        for i in range(m):
            if i != piv:
                tab[i] = [a - tab[i][enter] * p for a, p in zip(tab[i], tab[piv])]
        cost = [a - cost[enter] * p for a, p in zip(cost, tab[piv])]
        basis[piv] = enter
    if cost[-1] != 0:
        return None
    w = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            w[j] = tab[i][-1]
    return w


def test_phase1_simplex_matches_the_fraction_tableau():
    """Bland's rule on an integer-preserving (Edmonds-Bareiss) tableau.  Rows
    and right-hand sides are scaled by the lcm of their denominators and the
    artificial columns kept at I: a positive scaling of columns and of the
    objective, which moves no sign, ratio order or tie, so every pivot is the
    Fraction tableau's.  The stored integers over the last pivot d are that
    tableau, each pivot updates a row as (p a - f q) // d, exactly, and the
    ratio test cross-multiplies.
    """
    # rational entries of mixed signs and negative right-hand sides, and
    # degenerate 0/1 systems like the strategy LPs, where ratio ties are
    # common; every second system has a nonnegative solution by
    # construction, the others are shifted off it and are often infeasible
    rnd = random.Random(3)
    feasible = 0
    for trial in range(400):
        m, n = rnd.randint(1, 6), rnd.randint(1, 9)
        if trial < 200:
            rows = [[Fraction(rnd.randint(-3, 3), rnd.randint(1, 4)) for _ in range(n)]
                    for _ in range(m)]
            w0 = [Fraction(rnd.randint(0, 3), rnd.randint(1, 5)) for _ in range(n)]
        else:
            rows = [[Fraction(rnd.randint(0, 1)) for _ in range(n)] for _ in range(m)]
            w0 = [Fraction(rnd.choice((0, 0, 1, 2)), 3) for _ in range(n)]
        rhs = [sum(a * x for a, x in zip(row, w0)) + Fraction(trial % 2, 7)
               for row in rows]
        w = hardy._phase1_simplex(rows, rhs)
        assert w == _fraction_simplex(rows, rhs), (rows, rhs)
        if trial % 2 == 0:
            assert w is not None
        if w is not None:
            feasible += 1
            assert min(w) >= 0
            assert [sum(a * x for a, x in zip(row, w)) for row in rows] == rhs
    assert 200 < feasible < 400


def test_phase1_simplex_breaks_ratio_ties_by_blands_rule():
    # w1 + w3 = w0 + w1 + w2 = w2 + w3 = 2, a degenerate system: when w1
    # enters at the second pivot, the row of basic w0 and the row of the
    # first artificial tie in the ratio test.  Bland's rule drops the smaller
    # index, w0, and the simplex ends at (2, 0, 0, 2); dropping the
    # artificial instead ends at the other vertex (0, 1, 1, 1).
    rows = [[Fraction(a) for a in row] for row in ((0, 1, 0, 1), (1, 1, 1, 0), (0, 0, 1, 1))]
    rhs = [Fraction(2)] * 3
    assert hardy._phase1_simplex(rows, rhs) == [2, 0, 0, 2]
    assert _fraction_simplex(rows, rhs) == [2, 0, 0, 2]


def test_lhv_infeasible_without_forced_zero_narrative():
    # two events that each demand full weight on disjoint strategy sets;
    # no zero constraint exists, so the generic certificate is returned
    scenario = (
        LhvConstraint("P(f_A=+1) = 1", lambda s: s[0] == +1, Fraction(1)),
        LhvConstraint("P(f_A=-1) = 1", lambda s: s[0] == -1, Fraction(1)),
    )
    verdict = lhv_feasibility(scenario)
    assert isinstance(verdict, Infeasible)
    assert "no nonnegative solution" in verdict.certificate


def test_lhv_positive_event_that_no_strategy_meets_is_infeasible():
    # an event with empty support has probability 0 in every local model;
    # before, the forced-zero walk read the first strategy of that empty
    # support and raised IndexError
    verdict = lhv_feasibility((
        LhvConstraint("never", lambda s: False, Fraction(1, 2)),))
    assert isinstance(verdict, Infeasible)
    assert verdict.certificate == (
        "no strategy is consistent with the event in 'never', so the event "
        "probability must be 0; the required value 1/2 is positive")


def test_strategy_enumeration():
    assert len(STRATEGIES) == 16
    assert len(set(STRATEGIES)) == 16
    assert all(len(s) == 4 and set(s) <= {-1, 1} for s in STRATEGIES)


def test_grid_probabilities_match_the_per_pair_route():
    # the same Born-rule products in another summation order: a few ulps
    n = 16
    step = math.pi / (2 * n)
    per_pair = [[hardy_probability(feasible_state(a * step, b * step))[0]
                 for b in range(n)] for a in range(n)]
    assert np.abs(grid_probabilities(n) - per_pair).max() <= 1e-15


@pytest.mark.parametrize("n", [0, -3])
def test_grid_probabilities_reject_sizes_below_one(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        grid_probabilities(n)


@pytest.mark.parametrize("n", [2.5, True])
def test_grid_probabilities_reject_sizes_that_are_not_integers(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        grid_probabilities(n)


def test_grid_probabilities_raise_where_feasible_state_does(monkeypatch):
    # no pair of the grid on [0, pi/2)^2 loses rank; a tolerance above every
    # state norm shows that the grid keeps feasible_state's raise
    monkeypatch.setattr(hardy, "_RANK_TOL", 2.0)
    with pytest.raises(ValueError, match="lose rank"):
        feasible_state(0.1, 0.2)
    with pytest.raises(ValueError, match="lose rank"):
        grid_probabilities(4)
