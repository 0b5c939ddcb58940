import math

import numpy as np
import pytest

from dfsbell.dfs_states import (ETA_COEFFS, ETA_INT, SECTOR, V0, V1,
                                Observable, dfs_observable, make_eta, make_f,
                                make_g, make_phi0, make_phi1, make_psi0,
                                make_psi1)
from dfsbell.qcore import apply_collective, haar_su2, partial_trace

R3 = math.sqrt(3.0)
# the two-qubit singlet (|01> - |10>) / sqrt 2
SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


def _matrix(obs):
    """The observable's matrix, +1 on ``plus`` and -1 on ``minus``."""
    m, p = obs.minus.amplitudes, obs.plus.amplitudes
    return np.outer(p, p.conj()) - np.outer(m, m.conj())


def test_phi0_amplitudes():
    a = make_phi0().amplitudes
    expect = np.zeros(16)
    expect[0b0101] = expect[0b1010] = 0.5
    expect[0b0110] = expect[0b1001] = -0.5
    assert np.allclose(a, expect)


def test_phi0_is_two_singlet_pairs():
    assert abs(make_phi0().amplitudes @ np.kron(SINGLET, SINGLET) - 1.0) < 1e-12


def test_phi1_amplitudes():
    a = make_phi1().amplitudes
    expect = np.zeros(16)
    expect[0b0011] = expect[0b1100] = 2.0
    for w in (0b0101, 0b0110, 0b1001, 0b1010):
        expect[w] = -1.0
    expect /= 2.0 * R3
    assert np.allclose(a, expect)


def test_the_integer_table_is_the_sector():
    """One integer table defines the sector: V0 = 2 phi0 and V1 = 2 sqrt3 phi1
    are integer vectors, the columns of V with norms V_NORMS, and so is ETA_INT
    = 4 sqrt7 eta = V0 V0 + V0 V1 + V1 V0, whose coefficients over V_i (x) V_j
    are ETA_TABLE.  Every float of the sector is one of them scaled to unit
    norm: the (16, 2) basis SECTOR of columns phi0 and phi1, eta, and eta's
    coefficients ETA_COEFFS over phi_i (x) phi_j.  Sector coordinates c are the
    amplitudes SECTOR @ c, and SECTOR.T maps a sector state back to c.
    """
    # integer facts, exact: V0 and V1 are orthogonal with norms 2 and
    # 2 sqrt3, and 4 sqrt7 eta = V0 V0 + V0 V1 + V1 V0 has norm^2 112
    for v in (V0, V1, ETA_INT):
        assert np.issubdtype(v.dtype, np.integer)
    assert (V0 @ V0, V0 @ V1, V1 @ V1, ETA_INT @ ETA_INT) == (4, 0, 12, 112)
    assert np.array_equal(ETA_INT, np.kron(V0, V0) + np.kron(V0, V1) + np.kron(V1, V0))
    # the floats are the integers scaled: 2 phi0, 2 sqrt3 phi1, 4 sqrt7 eta
    assert np.array_equal(2 * make_phi0().amplitudes, V0)
    assert np.abs(2 * R3 * make_phi1().amplitudes - V1).max() < 1e-15
    assert np.abs(4 * math.sqrt(7) * make_eta().amplitudes - ETA_INT).max() < 1e-15
    # and eta from the float basis by its expansion (1, sqrt3, sqrt3, 0)/sqrt7
    phi0, phi1 = make_phi0().amplitudes, make_phi1().amplitudes
    eta = (np.kron(phi0, phi0) + R3 * np.kron(phi0, phi1)
           + R3 * np.kron(phi1, phi0)) / math.sqrt(7)
    assert np.abs(4 * math.sqrt(7) * eta - ETA_INT).max() < 1e-14
    assert np.abs(ETA_COEFFS - np.array([[1, R3], [R3, 0]]) / math.sqrt(7)).max() < 1e-15
    # SECTOR is an isometry onto span{phi0, phi1}
    assert np.abs(SECTOR.T @ SECTOR - np.eye(2)).max() < 1e-15


def test_psi_states_are_qubit23_swaps():
    # make_psi0/1 are defined by the swap; the tables of the (1,3)(2,4)
    # pairing, typed out here, are the independent route
    psi0 = np.zeros(16)
    psi0[0b0011] = psi0[0b1100] = 0.5
    psi0[0b0110] = psi0[0b1001] = -0.5
    psi1 = np.zeros(16)
    psi1[0b0101] = psi1[0b1010] = 2.0
    for w in (0b0011, 0b0110, 0b1001, 0b1100):
        psi1[w] = -1.0
    psi1 /= 2.0 * R3
    assert np.allclose(make_psi0().amplitudes, psi0)
    assert np.allclose(make_psi1().amplitudes, psi1)


def test_psi_states_in_phi_basis():
    # psi0 = (phi0 + sqrt(3) phi1)/2, psi1 = (sqrt(3) phi0 - phi1)/2
    phi0, phi1 = make_phi0().amplitudes, make_phi1().amplitudes
    assert np.allclose(make_psi0().amplitudes, (phi0 + R3 * phi1) / 2.0)
    assert np.allclose(make_psi1().amplitudes, (R3 * phi0 - phi1) / 2.0)


def test_sector_bases_orthonormal():
    for a, b in ((make_phi0(), make_phi1()), (make_psi0(), make_psi1())):
        assert abs(a.overlap(a) - 1.0) < 1e-12
        assert abs(b.overlap(b) - 1.0) < 1e-12
        assert abs(a.overlap(b)) < 1e-12


def test_eta_expansion_coefficients():
    eta = make_eta()
    phi = (make_phi0(), make_phi1())
    psi = (make_psi0(), make_psi1())
    n = 1.0 / math.sqrt(7.0)

    def coef(left, right):
        return np.vdot(np.kron(left.amplitudes, right.amplitudes), eta.amplitudes)

    # in the phi (x) phi basis: (1, sqrt3, sqrt3, 0)/sqrt7
    want = {(0, 0): n, (0, 1): R3 * n, (1, 0): R3 * n, (1, 1): 0.0}
    for (i, j), c in want.items():
        assert abs(coef(phi[i], phi[j]) - c) < 1e-12
    # in the phi (x) psi basis: (4, 0, sqrt3, 3)/(2 sqrt7)
    want = {(0, 0): 4, (0, 1): 0, (1, 0): R3, (1, 1): 3}
    for (i, j), c in want.items():
        assert abs(coef(phi[i], psi[j]) - c / (2 * math.sqrt(7))) < 1e-12


def test_exact_certificate_of_the_reduced_spectrum():
    sp = pytest.importorskip("sympy")
    r3 = sp.sqrt(3)
    phi0, phi1 = sp.zeros(16, 1), sp.zeros(16, 1)
    for idx, sign in ((0b0101, 1), (0b0110, -1), (0b1001, -1), (0b1010, 1)):
        phi0[idx] = sp.Rational(sign, 2)
        phi1[idx] = -1 / (2 * r3)
    phi1[0b0011] = phi1[0b1100] = 1 / r3
    assert np.allclose(np.array(phi0, dtype=float).ravel(), make_phi0().amplitudes)
    assert np.allclose(np.array(phi1, dtype=float).ravel(), make_phi1().amplitudes)
    # eta as a 16 x 16 matrix, wing A rows and wing B columns; wing A's
    # reduced state is m m^T, compared with the float partial trace
    m = (phi0 * phi0.T + r3 * phi0 * phi1.T + r3 * phi1 * phi0.T) / sp.sqrt(7)
    rho = m * m.T
    ours = partial_trace(make_eta(), keep=(1, 2, 3, 4)).matrix
    assert np.abs(np.array(rho, dtype=float) - ours).max() < 1e-12
    # rho = P R P^T with P = (phi0 phi1) orthonormal, so its spectrum is R's
    # two eigenvalues (7 +- sqrt13)/14 and fourteen zeros; R's eigenvectors
    # (1 +- sqrt13, 2 sqrt3) are the ones criterion 4 checks in floats
    p = phi0.row_join(phi1)
    assert sp.simplify(p.T * p) == sp.eye(2)
    r = sp.Matrix([[4, r3], [r3, 3]]) / 7
    assert sp.simplify(rho - p * r * p.T) == sp.zeros(16, 16)
    for sign in (+1, -1):
        value = (7 + sign * sp.sqrt(13)) / 14
        vector = sp.Matrix([1 + sign * sp.sqrt(13), 2 * r3])
        assert sp.simplify(r * vector - value * vector) == sp.zeros(2, 1)


def test_collective_rotation_invariance():
    rng = np.random.default_rng(21)
    states = [make_phi0(), make_phi1(), make_psi0(), make_psi1()]
    for _ in range(20):
        u = haar_su2(rng)
        for s in states:
            assert abs(s.overlap(apply_collective(s, u)) - 1.0) < 1e-12


def test_eta_invariant_under_independent_wing_rotations():
    rng = np.random.default_rng(22)
    eta = make_eta()
    for _ in range(10):
        out = apply_collective(eta, haar_su2(rng), wing="alice")
        out = apply_collective(out, haar_su2(rng), wing="bob")
        assert abs(eta.overlap(out) - 1.0) < 1e-12


def test_observable_lookup_and_matrix():
    f = make_f()
    assert abs(f.minus.overlap(make_phi0()) - 1.0) < 1e-12
    assert abs(f.plus.overlap(make_phi1()) - 1.0) < 1e-12
    m = _matrix(f)
    assert np.allclose(m, m.conj().T)
    v = make_phi1().amplitudes
    assert np.allclose(m @ v, v)


def test_observable_requires_orthonormal_eigenvectors():
    with pytest.raises(ValueError):
        Observable(make_phi0(), make_phi0())


def test_rotated_observable_matches_conjugation():
    rng = np.random.default_rng(24)
    u = haar_su2(rng)
    g = make_g()
    big = np.array([[1.0 + 0j]])
    for _ in range(4):
        big = np.kron(big, u)
    assert np.allclose(_matrix(g.rotated(u)), big @ _matrix(g) @ big.conj().T,
                       atol=1e-10)


def test_g_is_f_conjugated_by_qubit23_swap():
    # qubit 1 is the top bit of a word, so qubits 2 and 3 are bits 2 and 1;
    # P sends word w to w with those two bits exchanged
    p = np.zeros((16, 16))
    for w in range(16):
        b2, b3 = (w >> 2) & 1, (w >> 1) & 1
        p[(w & 0b1001) | (b3 << 2) | (b2 << 1), w] = 1.0
    assert np.allclose(_matrix(make_g()), p @ _matrix(make_f()) @ p.T,
                       rtol=0, atol=1e-12)


def test_dfs_observable_angles():
    # angle 0 reproduces the fixed observable's matrix
    assert np.allclose(_matrix(dfs_observable(0.0)), _matrix(make_f()))
    # the sector image of the rotated minus-eigenvector is (cos a, sin a),
    # and the eigenvector lies in the sector
    minus = dfs_observable(0.7).minus.amplitudes
    v = SECTOR.T @ minus
    assert abs(v[0] - math.cos(0.7)) < 1e-12
    assert abs(v[1] - math.sin(0.7)) < 1e-12
    assert np.abs(SECTOR @ v - minus).max() < 1e-12
