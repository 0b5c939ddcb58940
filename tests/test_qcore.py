import itertools
import math
from functools import reduce

import numpy as np
import pytest

from dfsbell import qcore
from dfsbell.correlations import LocalRotation
from dfsbell.dfs_states import SECTOR, make_g, make_phi0
from dfsbell.distinguish import (DistinguishInstance, find_distinguishing_thetas,
                                 grid_min_support_overlap, omega_from_thetas)
from dfsbell.hardy import HardyInstance, fixed_angle_maximum
from dfsbell.localmeas import (classify_outcome, wing_distribution,
                               wing_outcome_distribution)
from dfsbell.qcore import (ATOL, DensityOperator, QuantumState, SizeError,
                           apply_collective, basis_state, check_count,
                           check_unitary, collective_turn, frame_monomials,
                           haar_su2, haar_su2_batch, joint_probs, kron,
                           partial_trace, permute_qubits, turn_table,
                           wing_bras)


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


@pytest.mark.parametrize("read", [basis_state, lambda w: classify_outcome(w, "F")],
                         ids=["basis_state", "classify_outcome"])
@pytest.mark.parametrize("word", [(0, 1.7, 0, 1), (True, False, True, False)],
                         ids=["float", "bool"])
def test_float_and_bool_bits_are_refused(read, word):
    # one 0/1-word rule, check_bits: 1.7 is not truncated to 1, nor True read as 1
    with pytest.raises(ValueError, match="bit must be an integer"):
        read(word)


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
    np.stack([np.eye(2)] * 3),
], ids=["non-unitary", "nan", "3x3", "stack"])
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
    turned = collective_turn([grid], u)[0].reshape(16, 16, 9)
    assert np.abs(np.moveaxis(turned, -1, 0) - kron([u] * 4)).max() < 1e-14


def test_grid_table_is_exact_on_the_integer_grid():
    # sum_mu mu(U) T_mu - U^(x4) has degree at most 4 in each entry of U, so
    # it is zero for every 2 x 2 matrix once it is zero on the 5^4 integer
    # matrices with entries 0..4, where the monomials and T_mu are exact
    # integers
    u = np.array(list(itertools.product(range(5), repeat=4))).reshape(-1, 2, 2)
    mono = frame_monomials(u, range(35))
    assert not mono.imag.any()
    turned = np.einsum("mf,mij->fij", mono.real.astype(np.int64),
                       qcore._T.astype(np.int64))
    assert np.array_equal(turned, kron([u] * 4))


@pytest.mark.parametrize("m", [1, 2, 3, 7, 33, 256, 1000])
def test_kept_monomials_are_the_full_stacks_rows(m):
    # a kept row of m frames is the full stack's row for them in a batch of
    # 1,000, bit for bit, also for frames read through a strided view: one
    # frame's monomials are its column in the batch
    rng = np.random.default_rng(48)
    u = haar_su2_batch(rng, (1000,))
    for frames in (u, u.conj().swapaxes(-1, -2)):
        full = frame_monomials(frames, range(35))
        for lo in range(0, 1000, m)[:40]:
            part = frames[lo:lo + m]
            for cols in ([9, 14, 23], [9], [0, 20, 30, 34], list(range(35)),
                         np.sort(rng.choice(35, 12, replace=False))):
                assert np.array_equal(frame_monomials(part, cols),
                                      full[cols, lo:lo + m]), (lo, cols)


def test_collective_turn_drops_only_zero_columns(monkeypatch):
    # the turn multiplies the table's non-zero columns by their monomials
    # only, within 1e-15 of the full stack's turn for unit rows and vecs,
    # here with 12 random columns set to zero; a table with no zero column
    # turns all 35
    rng = np.random.default_rng(49)
    u = haar_su2_batch(rng, (300,))
    rows = rng.normal(size=(4, 16)) + 1j * rng.normal(size=(4, 16))
    vecs = rng.normal(size=(16, 2)) + 1j * rng.normal(size=(16, 2))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    vecs /= np.linalg.norm(vecs, axis=0)
    real_rows = rows.real / np.linalg.norm(rows.real, axis=1, keepdims=True)
    real_vecs = vecs.real / np.linalg.norm(vecs.real, axis=0)
    shapes, original = [], qcore.monomial_turn

    def recorded(table, mono):
        shapes.append((table.shape, mono.shape))
        return original(table, mono)
    monkeypatch.setattr(qcore, "monomial_turn", recorded)
    for table in (turn_table(real_rows, real_vecs), turn_table(rows, vecs)):
        assert table.any(axis=0).all()
        zeroed = table.copy()
        zeroed[:, rng.choice(35, 12, replace=False)] = 0
        full = original(zeroed, frame_monomials(u, range(35)))
        shapes.clear()
        assert np.abs(collective_turn([zeroed], u)[0] - full).max() < 1e-15
        assert shapes == [((8, 23), (23, 300))]
        shapes.clear()
        collective_turn([table], u)
        assert shapes == [((8, 35), (35, 300))]


def test_collective_turn_of_several_tables_builds_their_union_once(monkeypatch):
    # a sector table (det(U)^2's columns 9, 14 and 23) and a GHZ table (the
    # four u_ij^4) turn from one stack of the union of their 7 columns, built
    # once, each within 1e-15 of its turn alone
    u = haar_su2_batch(np.random.default_rng(52), (300,))
    ghz = np.zeros(16)
    ghz[[0, 15]] = 1 / math.sqrt(2)
    tables = (turn_table(np.eye(16), SECTOR), turn_table(ghz[None], ghz[:, None]))
    alone = [collective_turn([table], u)[0] for table in tables]
    used = [set(np.flatnonzero(table.any(axis=0)).tolist()) for table in tables]
    assert used[0] == {9, 14, 23} and len(used[1]) == 4
    built, original = [], qcore.frame_monomials

    def recorded(frames, cols):
        built.append(list(cols))
        return original(frames, cols)
    monkeypatch.setattr(qcore, "frame_monomials", recorded)
    together = collective_turn(tables, u)
    assert built == [sorted(used[0] | used[1])]
    for turned, expect in zip(together, alone):
        assert turned.shape == expect.shape
        assert np.abs(turned - expect).max() < 1e-15


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
            (turned,) = collective_turn([table], u)
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
        (whole,) = collective_turn([table], u)
        for a, b in ((0, 512), (512, 700), (3, 4), (100, 611), (5, 261)):
            (part,) = collective_turn([table], u[a:b])
            assert np.abs(part - whole[:, a:b]).max() < 1e-15


def test_complex_turn_is_the_turn_of_its_planes():
    # a complex table turns as its real plane's turn plus i times its
    # imaginary plane's turn, within 1e-15 for unit rows, vecs and frames;
    # k r = 1 is the one-row table, which BLAS multiplies as a vector
    rng = np.random.default_rng(47)
    u = haar_su2_batch(rng, (1000,))
    for k, r in ((1, 1), (1, 2), (4, 1), (16, 2), (3, 5)):
        rows = rng.normal(size=(k, 16)) + 1j * rng.normal(size=(k, 16))
        vecs = rng.normal(size=(16, r)) + 1j * rng.normal(size=(16, r))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        vecs /= np.linalg.norm(vecs, axis=0)
        real_rows = rows.real / np.linalg.norm(rows.real, axis=1, keepdims=True)
        real_vecs = vecs.real / np.linalg.norm(vecs.real, axis=0)
        for rows_c, vecs_c in ((rows, vecs), (real_rows, vecs), (rows, real_vecs)):
            table = turn_table(rows_c, vecs_c)
            assert table.dtype.kind == "c"
            for frames in (u, u[:3], u[7:8]):
                (re,), (im,), (turned,) = (collective_turn([t], frames) for t in
                                           (table.real, table.imag, table))
                assert np.abs(turned - (re + 1j * im)).max() < 1e-15, (k, r)


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


@pytest.mark.parametrize("build, error", [
    (lambda: QuantumState(np.eye(3)[0]), SizeError),
    (lambda: QuantumState(np.eye(2 ** 9)[0]), SizeError),
    (lambda: DensityOperator(np.eye(3) / 3), SizeError),
    (lambda: DensityOperator(np.eye(2 ** 9) / 2 ** 9), SizeError),
    (lambda: HardyInstance((1 + 1e-9, 0, 0, 0), 0.1, 0.1), ValueError),
], ids=["QuantumState-3", "QuantumState-2^9", "DensityOperator-3",
        "DensityOperator-2^9", "HardyInstance-norm"])
def test_validated_types_share_one_size_and_norm_rule(build, error):
    # both types count qubits alike, and a Hardy instance is a two-qubit
    # state: its norm, not its norm squared, must be 1 within ATOL
    with pytest.raises(error):
        build()


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator(np.eye(2))  # trace 2
    bad = np.diag([1.5, -0.5])
    with pytest.raises(ValueError):
        DensityOperator(bad)


NAN = float("nan")


@pytest.mark.parametrize("build, match", [
    (lambda: QuantumState(np.array([NAN, 0.0])), "state norm nan"),
    (lambda: HardyInstance((NAN, 0.0, 0.0, 0.0), 0.0, 0.0), "state norm nan"),
    (lambda: HardyInstance((1, 0, 0, 0), NAN, 0.0), "finite"),
    (lambda: check_unitary(np.array([[NAN, 0.0], [0.0, 1.0]])), "not unitary"),
    # unit trace, so only the Hermitian and eigenvalue tests see the NaN
    (lambda: DensityOperator(np.array([[1.0, NAN], [NAN, 0.0]])), "not Hermitian"),
    (lambda: DistinguishInstance(NAN, (0.0, 0.0, 0.0, 0.0)), "finite"),
    (lambda: DistinguishInstance(0.0, (0.0, NAN, math.inf, 0.0)), "finite"),
    (lambda: grid_min_support_overlap(NAN, 100), "finite"),
    (lambda: find_distinguishing_thetas(NAN, 100), "finite"),
    (lambda: fixed_angle_maximum(NAN), "finite"),
    # before, NaN came back as NaN and inf raised "math domain error"
    (lambda: omega_from_thetas(NAN, 0.0, 0.3, 0.5), "finite"),
    (lambda: omega_from_thetas(0.0, 0.1, math.inf, 0.5), "finite"),
], ids=["QuantumState", "HardyInstance", "HardyInstance-angle",
        "check_unitary", "DensityOperator", "DistinguishInstance",
        "DistinguishInstance-theta", "grid_min_support_overlap",
        "find_distinguishing_thetas", "fixed_angle_maximum",
        "omega_from_thetas-nan", "omega_from_thetas-inf"])
def test_nan_fails_every_validated_type(build, match):
    # each check reads ``not err <= tol``: a NaN error compares False
    # against every tolerance, so ``err > tol`` would let it through; an
    # angle has no tolerance and must be finite
    with pytest.raises(ValueError, match=match):
        build()


def test_overlap_conjugate_symmetry():
    rng = np.random.default_rng(9)
    a = rng.normal(size=8) + 1j * rng.normal(size=8)
    b = rng.normal(size=8) + 1j * rng.normal(size=8)
    sa = QuantumState(a / np.linalg.norm(a))
    sb = QuantumState(b / np.linalg.norm(b))
    assert abs(sa.overlap(sb) - np.conj(sb.overlap(sa))) < ATOL
