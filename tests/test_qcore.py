import math
from functools import reduce

import numpy as np
import pytest

from dfsbell.correlations import LocalRotation
from dfsbell.dfs_states import make_g, make_phi0
from dfsbell.distinguish import (DistinguishInstance, find_distinguishing_thetas,
                                 grid_min_support_overlap)
from dfsbell.hardy import HardyInstance, fixed_angle_maximum
from dfsbell.localmeas import wing_distribution, wing_outcome_distribution
from dfsbell.qcore import (ATOL, DensityOperator, QuantumState, SizeError,
                           apply_collective, basis_state, check_count,
                           check_unitary, collective_turn, haar_su2,
                           haar_su2_batch, joint_probs, kron, partial_trace,
                           permute_qubits, product_bras, turn_table, wing_bras)


def test_basis_state_bit_order():
    # qubit 1 is the most significant bit
    s = basis_state("0101")
    assert s.amplitudes[0b0101] == 1.0
    assert np.count_nonzero(s.amplitudes) == 1
    assert s.n_qubits == 4
    t = basis_state((1, 0))
    assert t.amplitudes[0b10] == 1.0


def test_basis_state_rejects_non_bits():
    with pytest.raises(ValueError):
        basis_state("0121")
    # a float bit is refused, not truncated to the word 1001
    for bits in ([1.5, 0, 0, 1], [1.0, 0, 0, 1], [True, 0, 0, 1]):
        with pytest.raises(ValueError, match="must be an integer"):
            basis_state(bits)


def test_state_validation():
    with pytest.raises(ValueError):
        QuantumState(np.array([1.0, 1.0]))  # not normalized
    with pytest.raises(ValueError):
        QuantumState(np.array([1.0, 0.0, 0.0]))  # not a power of two
    with pytest.raises(SizeError):
        QuantumState(np.eye(2 ** 9)[0])  # nine qubits


def test_permute_qubits_transposition():
    # output qubit k carries input qubit perm[k-1]: swapping 2 and 3
    # turns 0100 into 0010
    s = basis_state("0100")
    swapped = permute_qubits(s, (1, 3, 2, 4))
    assert swapped.amplitudes[0b0010] == 1.0
    with pytest.raises(ValueError, match="not a bijection"):
        permute_qubits(s, (1, 2, 2, 4))
    for perm in ((1.2, 3.9, 2, 4), (True, 3, 2, 4)):
        with pytest.raises(ValueError, match="must be an integer"):
            permute_qubits(s, perm)


def test_permute_qubits_inverse_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(5):
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        s = QuantumState(amps / np.linalg.norm(amps))
        perm = tuple(rng.permutation(4) + 1)
        inverse = tuple(int(np.argwhere(np.array(perm) == k)[0, 0]) + 1
                        for k in range(1, 5))
        back = permute_qubits(permute_qubits(s, perm), inverse)
        assert np.allclose(back.amplitudes, s.amplitudes)


def test_check_count_takes_integers_of_at_least_one():
    assert check_count("n", 3) == 3
    assert type(check_count("n", np.int64(3))) is int
    for value in (True, False, 2.5, 100.0, "3", None):
        with pytest.raises(ValueError, match="n must be an integer"):
            check_count("n", value)
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        check_count("n", -2)
    with pytest.raises(ValueError, match="^n must be positive$"):
        check_count("n", 0, "must be positive")


def test_unitary_validation():
    with pytest.raises(ValueError, match="not unitary"):
        check_unitary(np.array([[1.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(ValueError, match="not unitary"):
        check_unitary(np.stack([np.eye(2), np.diag([1.0, 2.0])]))
    # unit columns that are not orthogonal, and columns (1, 0) and
    # (i s, sqrt(1 - s^2)): the Gram matrix's diagonal passes, its
    # off-diagonal (1, and i s) does not, alone or as one frame of a stack
    s = 1e-6
    skewed = np.array([[1.0, 1.0], [0.0, 0.0]])
    tilted = np.array([[1.0, 1j * s], [0.0, math.sqrt(1 - s * s)]])
    for bad in (skewed, tilted):
        with pytest.raises(ValueError, match="not unitary"):
            check_unitary(bad)
        with pytest.raises(ValueError, match="not unitary"):
            check_unitary(np.stack([np.eye(2), bad, np.eye(2)]))
    with pytest.raises(ValueError, match="2, 2"):
        check_unitary(np.eye(3))
    u = np.eye(2)
    assert check_unitary(u) is u
    frames = haar_su2_batch(np.random.default_rng(1), (3, 2))
    assert check_unitary(frames) is frames


# every public function or type that takes a frame from a caller, each
# called with the frame as its one varying argument
_FRAME_ENTRY_POINTS = {
    "apply_collective": lambda u: apply_collective(make_phi0(), u),
    "Observable.rotated": lambda u: make_g().rotated(u),
    "LocalRotation": lambda u: LocalRotation(u, "alice"),
    "wing_distribution": lambda u: wing_distribution(make_phi0(), "F", u),
    "wing_outcome_distribution":
        lambda u: wing_outcome_distribution(make_phi0(), "F", u),
}


@pytest.mark.parametrize("frame", [
    np.diag([1.0, 1.0 + 1e-6]),
    np.array([[float("nan"), 0.0], [0.0, 1.0]]),
    np.eye(3),
], ids=["non-unitary", "nan", "3x3"])
@pytest.mark.parametrize("entry", list(_FRAME_ENTRY_POINTS))
def test_every_frame_entry_point_checks_its_frame(entry, frame):
    call = _FRAME_ENTRY_POINTS[entry]
    call(haar_su2(np.random.default_rng(2)))
    with pytest.raises(ValueError):
        call(frame)


def test_haar_su2_is_special_unitary():
    """Uses the quaternion parametrization: a point (a, b, c, d) drawn uniformly
    on the 3-sphere (four independent standard normals, normalized) maps to

        [[a + i b,  c + i d],
         [-c + i d, a - i b]],

    which has unit determinant a^2 + b^2 + c^2 + d^2 = 1.  Uniformity on S^3
    is exactly the Haar measure of SU(2).
    """
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = haar_su2(rng)
        assert u.shape == (2, 2)
        assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
        assert abs(np.linalg.det(u) - 1.0) < 1e-12


def _quaternion_draw(rng):
    # the per-draw arithmetic that fixed the seeded stream, kept as reference
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    a, b, c, d = q
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


@pytest.mark.parametrize("shape", [(), (7,), (5, 4)])
def test_haar_su2_batch_is_the_single_draw_stream(shape):
    single, batch, ref = (np.random.default_rng(29) for _ in range(3))
    n = math.prod(shape)
    expect = np.stack([haar_su2(single) for _ in range(n)])
    got = haar_su2_batch(batch, shape)
    assert got.shape == (*shape, 2, 2)
    assert np.array_equal(got.reshape(n, 2, 2), expect)
    assert np.array_equal(expect, [_quaternion_draw(ref) for _ in range(n)])
    assert batch.normal() == single.normal() == ref.normal()
    eye = np.broadcast_to(np.eye(2), got.shape)
    assert np.abs(got.conj().swapaxes(-1, -2) @ got - eye).max() < 1e-12
    assert np.abs(np.linalg.det(got) - 1.0).max() < 1e-12


def test_haar_su2_batch_checks_every_draw(monkeypatch):
    from dfsbell import qcore
    monkeypatch.setattr(qcore, "_QUAT", qcore._QUAT * (1 + 1e-9))
    with pytest.raises(ValueError, match="not unitary"):
        haar_su2_batch(np.random.default_rng(0), (3,))


def test_haar_su2_trace_moment():
    # E|tr U|^2 = 1 for Haar on SU(2); var is 1, so 2000 draws give
    # a standard error near 0.022 and a 0.15 window is comfortable.
    rng = np.random.default_rng(123)
    vals = [abs(np.trace(haar_su2(rng))) ** 2 for _ in range(2000)]
    assert abs(np.mean(vals) - 1.0) < 0.15


def test_apply_collective_on_product_state():
    rng = np.random.default_rng(3)
    u = haar_su2(rng)
    s = basis_state("00")
    out = apply_collective(s, u)
    expect = np.kron(u[:, 0], u[:, 0])
    assert np.allclose(out.amplitudes, expect)


def test_kron_helpers_match_numpy_kron():
    rng = np.random.default_rng(5)
    us = [haar_su2(rng) for _ in range(3)]
    stack = np.stack(us)
    for k in (1, 2, 4):
        batched = kron([stack] * k)
        for i, u in enumerate(us):
            assert np.allclose(batched[i], reduce(np.kron, [u] * k), atol=1e-14)
    rows = [np.array([[math.cos(t), math.sin(t)], [math.sin(t), -math.cos(t)]])
            for t in (0.1, 0.7, 1.3, 2.9)]
    assert np.allclose(kron(rows), reduce(np.kron, rows), atol=1e-15)
    bras = rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16))
    turned = wing_bras(bras, stack)
    for i, u in enumerate(us):
        big = reduce(np.kron, [u] * 4)
        assert np.allclose(turned[i], bras @ big.conj().T, atol=1e-13)
    m = rng.normal(size=(16, 16))
    assert np.allclose(joint_probs(turned, m, bras),
                       np.abs(np.einsum("nai,ij,bj->nab", turned, m, bras)) ** 2)


def test_wing_bras_matches_the_numpy_kron_route():
    # bras @ (U^(x4))^dagger with U^(x4) built by np.kron, for one frame, a
    # stack of frames and a stack of frame tuples, on real and complex bras
    rng = np.random.default_rng(45)
    real = rng.normal(size=(16, 16))
    for lead in ((), (7,), (5, 4)):
        u = haar_su2_batch(rng, lead)
        for bras in (real, rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16))):
            turned = wing_bras(bras, u)
            assert turned.shape == (*lead, len(bras), 16)
            for index in np.ndindex(*lead):
                big = reduce(np.kron, [u[index]] * 4)
                assert np.abs(turned[index] - bras @ big.conj().T).max() < 1e-13


def test_grid_tables_partition_the_grid_and_sum_to_the_kron():
    # the table of the identity rows is the 35 integer T_mu, grid entry by
    # grid entry: each entry lies in exactly one T_mu, and sum_mu mu(u) T_mu
    # is U^(x4) for any 2 x 2 matrix, unitary or not
    grid = turn_table(np.eye(16, dtype=int))
    assert grid.dtype.kind == "i" and grid.shape == (256, 35)
    assert set(grid.ravel().tolist()) == {0, 1}
    assert (grid.sum(axis=1) == 1).all() and grid.sum(axis=0).min() > 0
    rng = np.random.default_rng(46)
    u = (rng.normal(size=(9, 2, 2)) + 1j * rng.normal(size=(9, 2, 2))) / math.sqrt(2)
    turned = collective_turn(grid, u).reshape(16, 16, 9)
    assert np.abs(np.moveaxis(turned, -1, 0) - kron([u] * 4)).max() < 1e-14


def test_collective_turn_matches_the_full_operator():
    # rows U^(x4) vecs with U^(x4) built by kron, frame last, for real and
    # complex rows and vecs; the table takes their dtype
    rng = np.random.default_rng(43)
    u = haar_su2_batch(rng, (33,))
    full = kron([u] * 4)
    for k, r in ((1, 1), (16, 2), (3, 5)):
        rows = rng.normal(size=(k, 16))
        vecs = rng.normal(size=(16, r))
        for rows_c, vecs_c, dtype in ((rows, vecs, float), (rows + 0j, vecs, complex),
                                      (rows, vecs + 1j * vecs[::-1], complex),
                                      (rows + 1j * rows[:, ::-1], vecs, complex)):
            table = turn_table(rows_c, vecs_c)
            assert table.shape == (k * r, 35) and table.dtype == dtype
            turned = collective_turn(table, u)
            assert turned.shape == (k * r, 33) and turned.flags.c_contiguous
            expect = np.einsum("ai,mij,jr->arm", rows_c, full, vecs_c).reshape(k * r, 33)
            assert np.abs(turned - expect).max() < 1e-13, (k, r)


def test_collective_turn_of_a_frame_slice_is_that_slice_within_1e_15():
    # frames [a:b] turned alone give frames [a:b] of the turn of all frames
    # up to the BLAS product's rounding, which the block may change: within
    # the 1e-15 that collective_turn states, for rows and vecs of unit norm
    rng = np.random.default_rng(44)
    u = haar_su2_batch(rng, (700,))
    rows = rng.normal(size=(16, 16))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    vecs = rng.normal(size=(16, 2)) + 1j * rng.normal(size=(16, 2))
    for v in (vecs.real, vecs):
        table = turn_table(rows, v / np.linalg.norm(v, axis=0))
        whole = collective_turn(table, u)
        for a, b in ((0, 512), (512, 700), (3, 4), (100, 611), (5, 261)):
            assert np.abs(collective_turn(table, u[a:b]) - whole[:, a:b]).max() < 1e-15


def test_apply_collective_matches_the_full_operator():
    # U^(x k) acts per block of at most four qubits; compare with the
    # explicit 2^n x 2^n operator on every qubit count and wing
    rng = np.random.default_rng(8)
    u = haar_su2(rng)
    for n in range(1, 9):
        amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        s = QuantumState(amps / np.linalg.norm(amps))
        wings = {"all": [u] * n}
        if n == 8:
            wings["alice"] = [u] * 4 + [np.eye(2)] * 4
            wings["bob"] = [np.eye(2)] * 4 + [u] * 4
        for wing, factors in wings.items():
            expect = reduce(np.kron, factors) @ s.amplitudes
            out = apply_collective(s, u, wing=wing).amplitudes
            assert np.allclose(out, expect, atol=1e-13)


def test_apply_collective_wing_scoping():
    rng = np.random.default_rng(4)
    u = haar_su2(rng)
    s = basis_state("0" * 8)
    left = apply_collective(s, u, wing="alice")
    right = apply_collective(s, u, wing="bob")
    # acting on one wing leaves the other wing's marginal pure and unchanged
    rho_bob = partial_trace(left, keep=(5, 6, 7, 8)).matrix
    assert abs(rho_bob[0, 0] - 1.0) < 1e-12
    rho_alice = partial_trace(right, keep=(1, 2, 3, 4)).matrix
    assert abs(rho_alice[0, 0] - 1.0) < 1e-12
    with pytest.raises(ValueError):
        apply_collective(basis_state("0000"), u, wing="alice")
    with pytest.raises(ValueError):
        apply_collective(s, u, wing="middle")


def test_partial_trace_product_and_entangled():
    # product state: reduced state is pure
    s = QuantumState(np.kron(basis_state("01").amplitudes,
                             basis_state("10").amplitudes))
    rho = partial_trace(s, keep=(1, 2))
    assert np.allclose(rho.matrix, np.outer([0, 1, 0, 0], [0, 1, 0, 0]))
    # singlet pair: either side is maximally mixed
    amps = np.zeros(4, dtype=complex)
    amps[0b01], amps[0b10] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    pair = QuantumState(amps)
    for q in ((1,), (2,)):
        rho = partial_trace(pair, keep=q)
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_validates_labels():
    s = basis_state("0101")
    # qubits 2 and 4 of 0101 are both 1
    assert np.allclose(partial_trace(s, keep=(2, 4)).matrix,
                       np.diag([0, 0, 0, 1]))
    with pytest.raises(ValueError, match="not a subset"):
        partial_trace(s, keep=(0, 1))
    with pytest.raises(ValueError, match="not a subset"):
        partial_trace(s, keep=(1, 1))
    for keep in ((1.7, 2, 3, 4), (True, 2, 3, 4)):
        with pytest.raises(ValueError, match="must be an integer"):
            partial_trace(s, keep=keep)


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator(np.eye(2))  # trace 2
    bad = np.diag([1.5, -0.5])
    with pytest.raises(ValueError):
        DensityOperator(bad)


NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: QuantumState(np.array([NAN, 0.0])),
    lambda: HardyInstance((NAN, 0.0, 0.0, 0.0), 0.0, 0.0),
    lambda: HardyInstance((1, 0, 0, 0), NAN, 0.0),
    lambda: check_unitary(np.array([[NAN, 0.0], [0.0, 1.0]])),
    # unit trace, so only the Hermitian and eigenvalue tests see the NaN
    lambda: DensityOperator(np.array([[1.0, NAN], [NAN, 0.0]])),
    lambda: DistinguishInstance(NAN, (0.0, 0.0, 0.0, 0.0)),
    lambda: DistinguishInstance(0.0, (0.0, NAN, math.inf, 0.0)),
    lambda: grid_min_support_overlap(NAN, 100),
    lambda: find_distinguishing_thetas(NAN, 100),
    lambda: fixed_angle_maximum(NAN),
    lambda: product_bras((0.0, NAN, 0.0, 0.0)),
], ids=["QuantumState", "HardyInstance", "HardyInstance-angle",
        "check_unitary", "DensityOperator", "DistinguishInstance",
        "DistinguishInstance-theta", "grid_min_support_overlap",
        "find_distinguishing_thetas", "fixed_angle_maximum", "product_bras"])
def test_nan_fails_every_validated_type(build):
    # each check reads ``not err <= tol``: a NaN error compares False
    # against every tolerance, so ``err > tol`` would let it through; an
    # angle has no tolerance and must be finite
    with pytest.raises(ValueError):
        build()


def test_overlap_conjugate_symmetry():
    rng = np.random.default_rng(9)
    a = rng.normal(size=8) + 1j * rng.normal(size=8)
    b = rng.normal(size=8) + 1j * rng.normal(size=8)
    sa = QuantumState(a / np.linalg.norm(a))
    sb = QuantumState(b / np.linalg.norm(b))
    assert abs(sa.overlap(sb) - np.conj(sb.overlap(sa))) < ATOL
