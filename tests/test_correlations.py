import numpy as np
import pytest

from dfsbell.correlations import (EXPECTED_CORRELATIONS, NULL, OUTCOMES,
                                  LocalRotation, Setting,
                                  UndefinedConditionalError,
                                  conditional_probability, joint_distribution,
                                  joint_probability, verify_correlation_suite,
                                  wing_marginal)
from dfsbell.dfs_states import make_eta, make_f, make_g, make_phi0
from dfsbell.qcore import QuantumState, haar_su2


def test_joint_distribution_normalized_no_null():
    dist = joint_distribution(make_eta(), Setting(make_f()), Setting(make_g()))
    assert abs(sum(dist.values()) - 1.0) < 1e-12
    # spin-zero states never produce the null outcome
    for oa, ob in dist:
        if NULL in (oa, ob):
            assert dist[(oa, ob)] < 1e-12


def test_the_four_closed_form_values():
    eta = make_eta()
    fa, fb = Setting(make_f()), Setting(make_f())
    ga, gb = Setting(make_g()), Setting(make_g())
    assert joint_probability(eta, fa, fb, +1, +1) < 1e-12
    p = conditional_probability(eta, (fa, +1, "alice"), (gb, +1, "bob"))
    assert abs(p - 1.0) < 1e-12
    p = conditional_probability(eta, (fb, +1, "bob"), (ga, +1, "alice"))
    assert abs(p - 1.0) < 1e-12
    p = joint_probability(eta, ga, gb, +1, +1)
    assert abs(p - 9.0 / 112.0) < 1e-12


def test_further_closed_form_values():
    eta = make_eta()
    g, f = make_g(), make_f()
    # each wing sees the rotated-basis event with probability 9/28
    marg = wing_marginal(eta, Setting(g), "alice")
    assert abs(marg[+1] - 9.0 / 28.0) < 1e-12
    # given Alice's +1, Bob repeats it with probability 1/4
    p = conditional_probability(eta, (Setting(g), +1, "bob"),
                                (Setting(g), +1, "alice"))
    assert abs(p - 0.25) < 1e-12
    # fixed-observable marginal splits 3/7 to 4/7
    marg = wing_marginal(eta, Setting(f), "bob")
    assert abs(marg[+1] - 3.0 / 7.0) < 1e-12
    assert abs(marg[-1] - 4.0 / 7.0) < 1e-12


def test_outcome_and_wing_validation():
    eta = make_eta()
    fa = Setting(make_f())
    with pytest.raises(ValueError):
        joint_probability(eta, fa, fa, +1, 0)
    with pytest.raises(ValueError):
        conditional_probability(eta, (fa, +1, "alice"), (fa, +1, "alice"))
    with pytest.raises(ValueError):
        LocalRotation(haar_su2(np.random.default_rng(0)), "charlie")
    # a wing name other than "bob" is not read as Alice
    with pytest.raises(ValueError, match="wing must be 'alice' or 'bob'"):
        wing_marginal(eta, fa, "carol")
    with pytest.raises(ValueError, match="expects an 8-qubit state"):
        wing_marginal(make_phi0(), fa, "alice")
    with pytest.raises(ValueError, match="unknown outcome 0"):
        conditional_probability(eta, (fa, 0, "alice"), (fa, +1, "bob"))
    with pytest.raises(ValueError, match="unknown outcome 0"):
        conditional_probability(eta, (fa, +1, "alice"), (fa, 0, "bob"))


def test_conditioning_on_impossible_event():
    # on phi0 (x) phi0 Bob's fixed observable never reads +1
    phi0 = make_phi0().amplitudes
    state = QuantumState(np.kron(phi0, phi0))
    with pytest.raises(UndefinedConditionalError):
        conditional_probability(state, (Setting(make_g()), +1, "alice"),
                                (Setting(make_f()), +1, "bob"))


def test_rotations_do_not_move_the_distribution():
    rng = np.random.default_rng(31)
    eta = make_eta()
    base = joint_distribution(eta, Setting(make_f()), Setting(make_g()))
    for _ in range(10):
        a = Setting(make_f(), LocalRotation(haar_su2(rng), "alice"))
        b = Setting(make_g(), LocalRotation(haar_su2(rng), "bob"))
        rotated = joint_distribution(eta, a, b)
        for key in base:
            assert abs(rotated[key] - base[key]) < 1e-12


def test_rotation_wing_mismatch_rejected():
    rng = np.random.default_rng(32)
    bob_rot = LocalRotation(haar_su2(rng), "bob")
    with pytest.raises(ValueError):
        joint_distribution(make_eta(), Setting(make_f(), bob_rot),
                           Setting(make_g()))


def test_wing_marginal_sums_to_one():
    eta = make_eta()
    for wing in ("alice", "bob"):
        for obs in (make_f(), make_g()):
            marg = wing_marginal(eta, Setting(obs), wing)
            assert abs(sum(marg.values()) - 1.0) < 1e-12
            assert set(marg) == set(OUTCOMES)


def test_verify_correlation_suite_small_run():
    suite = verify_correlation_suite(n_rotation_samples=5, seed=77)
    assert suite.n_samples == 5
    for k, v in EXPECTED_CORRELATIONS.items():
        assert abs(suite.identity_values[k] - v) < 1e-12
    assert max(suite.max_deviation.values()) < 1e-12
    assert suite.max_null_probability < 1e-12
    assert set(suite.identity_values) == set(EXPECTED_CORRELATIONS)


def test_verify_correlation_suite_seeded_repeatability():
    a = verify_correlation_suite(n_rotation_samples=3, seed=5)
    b = verify_correlation_suite(n_rotation_samples=3, seed=5)
    assert a.max_deviation == b.max_deviation


def test_batched_suite_matches_the_per_tuple_route():
    # tuple i of the suite uses draws 4i..4i+3 in the order (F on Alice,
    # G on Alice, F on Bob, G on Bob); recompute each tuple through
    # joint_probability and conditional_probability
    n, seed = 6, 23
    suite = verify_correlation_suite(n_rotation_samples=n, seed=seed)
    rng = np.random.default_rng(seed)
    devs = {k: [] for k in EXPECTED_CORRELATIONS}
    eta = make_eta()
    for _ in range(n):
        fa, ga, fb, gb = (
            Setting(obs, LocalRotation(haar_su2(rng), wing))
            for obs, wing in ((make_f(), "alice"), (make_g(), "alice"),
                              (make_f(), "bob"), (make_g(), "bob")))
        vals = {
            "joint_ff_plus_plus": joint_probability(eta, fa, fb, +1, +1),
            "cond_fa_given_gb": conditional_probability(
                eta, (fa, +1, "alice"), (gb, +1, "bob")),
            "cond_fb_given_ga": conditional_probability(
                eta, (fb, +1, "bob"), (ga, +1, "alice")),
            "joint_gg_plus_plus": joint_probability(eta, ga, gb, +1, +1),
        }
        for k, expected in EXPECTED_CORRELATIONS.items():
            devs[k].append(abs(vals[k] - expected))
    for k in EXPECTED_CORRELATIONS:
        assert abs(suite.max_deviation[k] - max(devs[k])) < 1e-14
        assert 0 <= suite.worst_sample[k] < n
        assert devs[k][suite.worst_sample[k]] >= max(devs[k]) - 1e-14
    with pytest.raises(ValueError, match="n_rotation_samples must be >= 1"):
        verify_correlation_suite(n_rotation_samples=0)
    with pytest.raises(ValueError, match="n_rotation_samples must be an integer"):
        verify_correlation_suite(n_rotation_samples=2.5)


def test_null_probability_covers_all_four_settings():
    # the per-tuple route: wing_marginal of each of the four settings,
    # unrotated and under every rotation tuple; at this seed the largest
    # null probability is F on Bob's, a setting the suite once left out
    n, seed = 8, 25
    suite = verify_correlation_suite(n_rotation_samples=n, seed=seed)
    rng = np.random.default_rng(seed)
    eta = make_eta()
    settings = (("F on Alice", make_f(), "alice"), ("G on Alice", make_g(), "alice"),
                ("F on Bob", make_f(), "bob"), ("G on Bob", make_g(), "bob"))
    null = {(name, None): wing_marginal(eta, Setting(obs), wing)[NULL]
            for name, obs, wing in settings}
    for i in range(n):
        for name, obs, wing in settings:
            rot = LocalRotation(haar_su2(rng), wing)
            null[(name, i)] = wing_marginal(eta, Setting(obs, rot), wing)[NULL]
    largest = max(null.values())
    assert abs(suite.max_null_probability - largest) < 1e-16
    assert null[suite.worst_null] >= largest - 1e-16
