"""Property tests: two measurement routes agree on random sector states and frames."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from dfsbell.dfs_states import (DfsVector, dfs_embed, make_phi0, make_phi1,
                                make_psi0, make_psi1)
from dfsbell.localmeas import wing_outcome_distribution
from dfsbell.qcore import Unitary2

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
    s = dfs_embed(DfsVector(c0 / norm, c1 / norm))
    a, b, x, y = qn / np.linalg.norm(qn)
    u = Unitary2(np.array([[a + 1j * b, x + 1j * y], [-x + 1j * y, a - 1j * b]]))
    classified = wing_outcome_distribution(s, protocol, rotation=u)
    minus, plus = ((make_phi0(), make_phi1()) if protocol == "F"
                   else (make_psi0(), make_psi1()))
    assert classified[-1] == pytest.approx(abs(minus.overlap(s)) ** 2, abs=1e-12)
    assert classified[+1] == pytest.approx(abs(plus.overlap(s)) ** 2, abs=1e-12)
