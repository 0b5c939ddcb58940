"""Property tests: two routes to the same probabilities agree on random inputs."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from dfsbell.correlations import Setting, joint_probability
from dfsbell.dfs_states import (SECTOR, dfs_observable, make_f, make_phi0,
                                make_phi1, make_psi0, make_psi1)
from dfsbell.hardy import (HardyInstance, feasible_state, hardy_probability,
                           to_full_state)
from dfsbell.localmeas import wing_outcome_distribution
from dfsbell.qcore import QuantumState

unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@settings(max_examples=60, deadline=None, database=None)
@given(c=st.tuples(unit, unit, unit, unit), q=st.tuples(unit, unit, unit, unit),
       protocol=st.sampled_from(("F", "G")))
def test_product_words_match_the_rank_two_projectors(c, q, protocol):
    # route 1 classifies the 16 product words measured in a frame turned by
    # U^(x4); route 2 projects onto the observable's two eigenvectors
    c0, c1 = complex(c[0], c[1]), complex(c[2], c[3])
    norm = math.hypot(abs(c0), abs(c1))
    qn = np.asarray(q)
    assume(norm > 1e-3 and np.linalg.norm(qn) > 1e-3)
    s = QuantumState(SECTOR @ np.array([c0 / norm, c1 / norm]))
    a, b, x, y = qn / np.linalg.norm(qn)
    u = np.array([[a + 1j * b, x + 1j * y], [-x + 1j * y, a - 1j * b]])
    classified = wing_outcome_distribution(s, protocol, rotation=u)
    minus, plus = ((make_phi0(), make_phi1()) if protocol == "F"
                   else (make_psi0(), make_psi1()))
    assert classified[-1] == pytest.approx(abs(minus.overlap(s)) ** 2, abs=1e-12)
    assert classified[+1] == pytest.approx(abs(plus.overlap(s)) ** 2, abs=1e-12)


angle = st.floats(min_value=0.05, max_value=math.pi / 2 - 0.05)


@settings(max_examples=40, deadline=None, database=None)
@given(c=st.tuples(*[unit] * 8), aa=angle, ab=angle, feasible=st.booleans())
def test_hardy_probability_agrees_with_full_state_route(c, aa, ab, feasible):
    # the 2x2 reduction must reproduce the Born probabilities computed on
    # the embedded 256-dimensional state, for random states and for the
    # feasible states the optimizers return, whose zeros must hold there too
    amps = np.array(c[:4]) + 1j * np.array(c[4:])
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    inst = (feasible_state(aa, ab) if feasible
            else HardyInstance(tuple(amps / norm), aa, ab))
    p, residuals = hardy_probability(inst)
    full = to_full_state(inst)
    ga = Setting(dfs_observable(inst.alpha_a))
    gb = Setting(dfs_observable(inst.alpha_b))
    fa = fb = Setting(make_f())
    zeros = {
        ("F", "F", +1, +1): joint_probability(full, fa, fb, +1, +1),
        ("F", "G", -1, +1): joint_probability(full, fa, gb, -1, +1),
        ("G", "F", +1, -1): joint_probability(full, ga, fb, +1, -1),
    }
    assert abs(p - joint_probability(full, ga, gb, +1, +1)) < 1e-10
    for event, value in zeros.items():
        assert abs(residuals[event] - value) < 1e-10
    if feasible:
        assert max(zeros.values()) < 1e-12 and p > 0.0
