import itertools
import math
import tracemalloc
import types

import numpy as np
import pytest

from dfsbell import distinguish, qcore
from dfsbell.distinguish import (_CHUNK, _TABLES, SUPPORT_TOL,
                                 DistinguishInstance, _grid_coefficients, _lam_floor,
                                 _overlap_floor, _theta_d_rows, component_table,
                                 find_distinguishing_thetas,
                                 grid_min_support_overlap, is_distinguishing,
                                 omega_from_thetas,
                                 scan_distinguishable_omegas, support_overlap)
from dfsbell.dfs_states import SECTOR, V0, V1
from dfsbell.qcore import QuantumState, axis_rows, permute_qubits

F_THETAS = (0.0, 0.0, math.pi / 4, math.pi / 4)

# the pair angles of the pruning tests: the six distinguishable ones, where
# the overlap's minimum is rounding noise, and three excluded ones
FLOOR_OMEGAS = (*(k * math.pi / 6 for k in range(6)), math.pi / 5,
                math.pi / 4, 1.0)


def _front_at(theta_b, theta_c):
    """The components of phi0 + i phi1 with qubits a, b and c measured, at
    the pairs (theta_b[m], theta_c[m]), any angles: (m, b, c, l), qubit a on
    bit 0 at theta 0 and qubit d in its computational bit l.  One einsum,
    independent of the package's products."""
    phi = (SECTOR @ np.array([1, 1j])).reshape(2, 2, 2, 2)[0]
    rows_b, rows_c = ([axis_rows(t) for t in ts] for ts in (theta_b, theta_c))
    return np.einsum("mbj,mck,jkl->mbcl", rows_b, rows_c, phi)


def _grid_front(resolution):
    """``(thetas, front)``: the grid angles k pi/r on [0, pi/2) and
    ``_front_at`` at every grid pair, row i * r/2 + j at (thetas[i],
    thetas[j])."""
    thetas, _ = _grid_coefficients(resolution)
    n = len(thetas)
    return thetas, _front_at(np.repeat(thetas, n), np.tile(thetas, n))


def _grid_chunks(resolution, width=3):
    """The unpruned word grid, the reference of the row floors.

    Yields ``(thetas, lo, z)`` one theta_d block of ``width`` angles at a
    time: ``z[i, j, k, w]`` is the component of phi0 + i phi1 for the word
    0bcd (w = 4b + 2c + d) at angles (0, thetas[i], thetas[j], thetas[lo +
    k]).  3 divides neither 50 nor 100, so the last block is ragged at the
    usual resolutions.
    """
    thetas, front = _grid_front(resolution)
    n = len(thetas)
    rows = np.stack([axis_rows(t) for t in thetas])
    # real columns (b, c, l, re/im) of the complex front
    front = front.reshape(n * n, 8).view(float)
    eye = np.eye(2)
    for lo in range(0, n, width):
        md = rows[lo:lo + width]
        blocks = np.einsum("bB,cC,tdl,eE->bcletBCdE", eye, eye, md, eye)
        z = front @ blocks.reshape(16, -1)
        yield thetas, lo, z.view(complex).reshape(n, n, len(md), 8)


def _word_grid_overlaps(omega, resolution):
    """max_w min(|psi_w|, |perp_w|) at every tuple, from the word grid."""
    rot = complex(math.cos(omega), -math.sin(omega))
    return np.concatenate([
        np.minimum(np.abs((rot * z).real), np.abs((rot * z).imag)).max(axis=-1)
        for _, _, z in _grid_chunks(resolution)], axis=2)


def _recorded_blocks(monkeypatch):
    """The list of the row blocks ``distinguish._rows_below`` yields from now on."""
    blocks = []
    rows_below = distinguish._rows_below

    def recorded(floor, bound):
        for rows in rows_below(floor, bound):
            blocks.append(rows)
            yield rows

    monkeypatch.setattr(distinguish, "_rows_below", recorded)
    return blocks


def _all_rows(resolution):
    """``(coef, p, q)`` of the closed form in theta_d on every row, (r/2)^3."""
    thetas, coef = _grid_coefficients(resolution)
    n = len(thetas)
    p, q = _theta_d_rows(coef, np.exp(4j * thetas), np.arange(n * n))
    return coef, p.reshape(n, n, n), q.reshape(n, n, n)


def test_component_table_at_omega_zero():
    # at omega 0 the pair is the two sector basis states; in the known
    # working basis their supports are the 4-word and 12-word sets
    inst = DistinguishInstance(0.0, F_THETAS)
    table = component_table(inst)
    four = {0b0101, 0b0110, 0b1001, 0b1010}
    for w in range(16):
        if w in four:
            assert abs(abs(table[w, 0]) - 0.5) < 1e-12
            assert abs(table[w, 1]) < 1e-12
        else:
            assert abs(table[w, 0]) < 1e-12
            assert abs(abs(table[w, 1]) - 1 / math.sqrt(12)) < 1e-12
    assert is_distinguishing(inst)
    assert support_overlap(inst) < SUPPORT_TOL


def test_pair_and_its_complement_share_the_verdict():
    rng = np.random.default_rng(51)
    for _ in range(5):
        w = rng.uniform(0, math.pi)
        thetas = tuple(rng.uniform(0, math.pi, size=4))
        a = support_overlap(DistinguishInstance(w, thetas))
        b = support_overlap(DistinguishInstance(w + math.pi / 2, thetas))
        assert abs(a - b) < 1e-12


def test_component_complement_symmetry():
    # flipping every bit multiplies a component by (-1)^(number of zeros)
    rng = np.random.default_rng(52)
    for _ in range(5):
        inst = DistinguishInstance(rng.uniform(0, math.pi),
                                   tuple(rng.uniform(0, math.pi, size=4)))
        t = component_table(inst)
        for w in range(16):
            sign = (-1) ** (4 - bin(w).count("1"))
            assert np.allclose(t[w ^ 0b1111], sign * t[w], atol=1e-12)


def test_omega_from_thetas_zeroes_the_extreme_words():
    rng = np.random.default_rng(53)
    hits = 0
    while hits < 10:
        thetas = tuple(rng.uniform(0, math.pi, size=4))
        cot = omega_from_thetas(*thetas)
        if cot is None:
            continue
        hits += 1
        w = math.atan2(1.0, cot)
        table = component_table(DistinguishInstance(w, thetas))
        assert abs(table[0, 0]) < 1e-9
        assert abs(table[15, 0]) < 1e-9


def test_omega_from_thetas_known_point_and_degeneracy():
    cot = omega_from_thetas(0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)
    assert cot == pytest.approx(0.0, abs=1e-12)
    assert omega_from_thetas(0.3, 0.3, 0.1, 0.9) is None
    assert omega_from_thetas(0.1, 0.9, 0.4, 0.4 + math.pi) is None


def test_grid_chunks_match_component_table():
    # the reference word grid's z = A + iB on words 0bcd, and through the
    # bit-flip sign on words 1bcd, against the direct product-basis
    # components; the quarter grid of r = 100 has 50 angles, not a multiple
    # of the block width, so the last block is ragged
    rng = np.random.default_rng(54)
    r = 100
    covered = 0
    for thetas, lo, z in _grid_chunks(r):
        assert lo == covered
        covered += z.shape[2]
        assert z.shape == (r // 2, r // 2, z.shape[2], 8)
        assert thetas[-1] < math.pi / 2
        for _ in range(3):
            i, j = rng.integers(r // 2, size=2)
            k = rng.integers(z.shape[2])
            inst = DistinguishInstance(0.0, (0.0, thetas[i], thetas[j],
                                             thetas[lo + k]))
            table = component_table(inst)
            # at omega 0, psi = phi0 and psi_perp = -phi1
            full = table[:, 0] - 1j * table[:, 1]
            assert np.allclose(z[i, j, k], full[:8], rtol=0, atol=1e-12)
            for w in range(8):
                sign = (-1) ** (4 - bin(w).count("1"))
                assert abs(full[w ^ 0b1111] - sign * z[i, j, k, w]) < 1e-12
    assert covered == r // 2


def test_axis_rows_quarter_turn(monkeypatch):
    # a pi/2 shift swaps the two rows and negates the new first row; exactly,
    # by evaluating axis_rows itself at a symbol with sympy's cos and sin
    sp = pytest.importorskip("sympy")
    t = sp.Symbol("t", real=True)
    with monkeypatch.context() as m:
        m.setattr(qcore, "math", sp)
        rows, shifted = axis_rows(t), axis_rows(t + sp.pi / 2)
    assert sp.Matrix(shifted - np.array([-rows[1], rows[0]])).is_zero_matrix
    for t in np.arange(100) * (math.pi / 100):
        rows = axis_rows(t)
        shifted = axis_rows(t + math.pi / 2)
        assert np.allclose(shifted, [-rows[1], rows[0]], rtol=0, atol=1e-12)


def test_theta_d_sums_are_polynomial_identities(monkeypatch):
    # qubit d's rows of axis_rows(t) take the front components (F0, F1) to
    # z = A e + B / e and z = -i (A e - B / e), e = e^{it}; summed over d,
    # z^4 and |z^2|^2 are the two closed forms of the module docstring.
    # Ac, Bc stand for conj(A), conj(B), and conj(e) = 1 / e
    sp = pytest.importorskip("sympy")
    t = sp.Symbol("t", real=True)
    f0, f1 = sp.symbols("F0 F1")
    a, b, ac, bc, e = sp.symbols("A B Ac Bc e")
    with monkeypatch.context() as m:
        m.setattr(qcore, "math", sp)
        rows = axis_rows(t)
    exp_t = sp.exp(sp.I * t)
    halves = {a: (f0 - sp.I * f1) / 2, b: (f0 + sp.I * f1) / 2}
    zs = (a * e + b / e, -sp.I * (a * e - b / e))
    for row, z in zip(rows, zs):
        diff = z.subs(halves).subs(e, exp_t) - (row[0] * f0 + row[1] * f1)
        assert sp.simplify(diff.rewrite(sp.cos)) == 0
    zcs = (ac / e + bc * e, sp.I * (ac / e - bc * e))
    q = sum(z ** 4 for z in zs)
    assert sp.expand(q - (2 * a ** 4 * e ** 4 + 12 * a ** 2 * b ** 2
                          + 2 * b ** 4 / e ** 4)) == 0
    p = sum((z * zc) ** 2 for z, zc in zip(zs, zcs))
    p0 = 2 * (a ** 2 * ac ** 2 + b ** 2 * bc ** 2 + 4 * a * ac * b * bc)
    # P0 + 2 Re(P4 e^4) with P4 = 2 A^2 conj(B)^2
    assert sp.expand(p - (p0 + 2 * a ** 2 * bc ** 2 * e ** 4
                          + 2 * ac ** 2 * b ** 2 / e ** 4)) == 0


def test_theta_d_closed_form_matches_the_word_grid():
    # lam = p - |q| and the summed squared support products, from the five
    # coefficients per (theta_b, theta_c), against the word grid at every
    # tuple of r = 100
    r = 100
    z = np.concatenate([z for _, _, z in _grid_chunks(r)], axis=2)
    _, p, q = _all_rows(r)
    assert p.shape == q.shape == z.shape[:3]
    z2 = z * z
    lam_grid = np.sum(np.abs(z2) ** 2, axis=-1) - np.abs(np.sum(z2 * z2, axis=-1))
    assert np.abs((p - np.abs(q)) - lam_grid).max() < 1e-14
    for omega in (*(k * math.pi / 6 for k in range(6)), math.pi / 5, 1.0):
        u = complex(math.cos(omega), -math.sin(omega)) * z
        obj_grid = np.sum((u.real * u.imag) ** 2, axis=-1)
        rot4 = complex(math.cos(4 * omega), -math.sin(4 * omega))
        assert np.abs((p - (rot4 * q).real) / 8 - obj_grid).max() < 1e-14


def _coefficients(front):
    """(P0, P4, Q4, Q0, Q-4) of each front row as the module docstring's sums
    over the bits b and c: the per-row reference route of the tables."""
    f0, f1 = front.reshape(len(front), 4, 2).transpose(2, 0, 1)
    a, b = (f0 - 1j * f1) / 2, (f0 + 1j * f1) / 2
    a2, b2 = a * a, b * b
    aa, bb = (a * a.conj()).real, (b * b.conj()).real
    return (2 * np.sum(aa * aa + bb * bb + 4 * aa * bb, axis=1),
            2 * np.sum(a2 * b2.conj(), axis=1),
            2 * np.sum(a2 * a2, axis=1),
            12 * np.sum(a2 * b2, axis=1),
            2 * np.sum(b2 * b2, axis=1))


@pytest.mark.parametrize("resolution", [100, 104, 200])
def test_coefficient_tables_match_the_row_sums(resolution):
    # the tables on the grid against the per-row sums over the four (b, c)
    # terms of the front
    _, coef = _grid_coefficients(resolution)
    assert coef[0].dtype == float
    for got, want in zip(coef, _coefficients(_grid_front(resolution)[1])):
        assert np.abs(got - want).max() < 1e-15


def test_coefficient_tables_hold_off_the_grid():
    # the identity holds on the whole (theta_b, theta_c) torus
    rng = np.random.default_rng(56)
    theta_b, theta_c = rng.uniform(0, math.pi, size=(2, 200))
    tables = (_TABLES[:, 0] + 1j * math.sqrt(3) * _TABLES[:, 1]) / 576
    basis_b, basis_c = (np.stack([np.ones(200), np.exp(4j * t), np.exp(-4j * t)])
                        for t in (theta_b, theta_c))
    got = np.einsum("im,kij,jm->km", basis_b, tables, basis_c)
    for g, want in zip(got, _coefficients(_front_at(theta_b, theta_c))):
        assert np.abs(g - want).max() < 1e-15


def test_coefficient_tables_are_exact(monkeypatch):
    # exact values in Q(sqrt3, i) at the 3 x 3 nodes theta in {0, pi/6,
    # pi/3}, where every row entry and e^{4i theta} lie in that field.  The
    # basis (1, E, 1/E) at E = 1, e^{2i pi/3}, e^{-2i pi/3} is the invertible
    # 3-point Fourier matrix, so the nine values fix each table
    sp = pytest.importorskip("sympy")
    assert _TABLES.dtype.kind == "i"
    s3 = sp.sqrt(3)
    phi = [sp.Rational(int(a), 2) + sp.I * int(b) / (2 * s3) for a, b in zip(V0, V1)]
    nodes = (0, sp.pi / 6, sp.pi / 3)
    basis = [(1, sp.cos(4 * t) + sp.I * sp.sin(4 * t),
              sp.cos(4 * t) - sp.I * sp.sin(4 * t)) for t in nodes]
    tables = [[[(int(a) + sp.I * s3 * int(b)) / 576 for a, b in zip(ra, rb)]
               for ra, rb in zip(*table)] for table in _TABLES]
    with monkeypatch.context() as m:
        m.setattr(qcore, "math", sp)
        rows = [axis_rows(t) for t in nodes]
    for (eb, rb), (ec, rc) in itertools.product(zip(basis, rows), repeat=2):
        sums = [0] * 5
        # one bit's row of qubit b and one of qubit c per term of the sums
        for row_b, row_c in itertools.product(rb, rc):
            f0, f1 = (sum(row_b[j] * row_c[k] * phi[4 * j + 2 * k + l]
                          for j in range(2) for k in range(2)) for l in range(2))
            # expanded at each step, which keeps the expressions short
            a, b = (sp.expand(f0 + sign * sp.I * f1) / 2 for sign in (-1, 1))
            a2, b2 = sp.expand(a * a), sp.expand(b * b)
            aa, bb = (sp.expand(x * sp.conjugate(x)) for x in (a, b))
            terms = (2 * (aa * aa + bb * bb + 4 * aa * bb),
                     2 * a2 * sp.conjugate(b2), 2 * a2 * a2, 12 * a2 * b2,
                     2 * b2 * b2)
            sums = [sp.expand(s + t) for s, t in zip(sums, terms)]
        for table, want in zip(tables, sums):
            got = sum(t * eb[i] * ec[j] for i, row in enumerate(table)
                      for j, t in enumerate(row))
            assert sp.expand(got - want) == 0


@pytest.mark.parametrize("omega", [math.pi / 5, math.pi / 4, math.pi / 6, 1.0])
def test_the_overlap_does_not_depend_on_the_block_size(monkeypatch, omega):
    # every row's front and words are the same floats in any block, though
    # the block's 4 * _CHUNK front rows set the shape of qubit d's products,
    # so the returned minimum is the same float bit for bit
    for resolution in (100, 104, 200):
        values = set()
        for chunk in (1, 7, 64):
            monkeypatch.setattr(distinguish, "_CHUNK", chunk)
            values.add(grid_min_support_overlap(omega, resolution=resolution))
        assert len(values) == 1, resolution


def test_row_floors_bound_every_tuple():
    # each floor of the module docstring's Row floors is at most its
    # quantity at every tuple of r = 100: lam, 8 sum_w (psi_w perp_w)^2 and
    # 8 ov^2.  The second floor is also the exact minimum over theta_d: on a
    # grid of spacing 4 pi / r in 4t it lies within |C4| (1 - cos(2 pi / r))
    # of the row's grid minimum, and the row's spread is at least 2 |C4|
    # cos(2 pi / r), so a slip in C0 or C4 breaks one of the two bounds
    r = 100
    coef, p, q = _all_rows(r)
    n = r // 2
    assert (_lam_floor(coef).reshape(n, n, 1) <= p - np.abs(q) + 1e-14).all()
    slack = (1 - math.cos(2 * math.pi / r)) / (2 * math.cos(2 * math.pi / r))
    for omega in FLOOR_OMEGAS:
        rot4 = complex(math.cos(4 * omega), -math.sin(4 * omega))
        floor = _overlap_floor(coef, rot4).reshape(n, n, 1)
        obj = p - (rot4 * q).real
        assert (floor <= obj + 1e-14).all()
        low, high = obj.min(axis=-1, keepdims=True), obj.max(axis=-1, keepdims=True)
        assert (low - floor <= (high - low) * slack + 1e-14).all()
        overlap = _word_grid_overlaps(omega, r)
        assert (floor <= 8 * overlap ** 2 + 1e-14).all()


def _reductions(table):
    # p - |q| over the words 0bcd, the support overlap and the summed
    # squared support products, from a (16, 2) table of (psi, perp) components
    z = table[:8, 0] - 1j * table[:8, 1]
    z2 = z * z
    lam = np.sum(np.abs(z2) ** 2) - abs(np.sum(z2 * z2))
    overlap = np.min(np.abs(table), axis=1).max()
    return np.array([lam, overlap, np.sum((table[:, 0] * table[:, 1]) ** 2)])


def test_quarter_grid_images_carry_the_same_reductions():
    # a tuple of the full r = 100 grid on [0, pi)^3 against its image on
    # the quarter grid (indices mod 50): each shifted qubit flips its bit
    # and negates the components whose bit was 0
    rng = np.random.default_rng(55)
    r, step = 100, math.pi / 100
    checked = 0
    while checked < 200:
        ks = rng.integers(r, size=3)
        if (ks < r // 2).all():
            continue
        checked += 1
        omega = rng.uniform(0, math.pi)
        shifted = [bit for bit, k in zip((4, 2, 1), ks) if k >= r // 2]
        table = component_table(DistinguishInstance(omega, (0.0, *(ks * step))))
        image = component_table(DistinguishInstance(
            omega, (0.0, *((ks % (r // 2)) * step))))
        mask = sum(shifted)
        for w in range(16):
            sign = (-1) ** sum(1 for bit in shifted if not w & bit)
            assert np.allclose(table[w], sign * image[w ^ mask], rtol=0, atol=1e-12)
        assert np.allclose(_reductions(table), _reductions(image), rtol=0, atol=1e-12)


def test_scan_with_a_ragged_last_chunk(monkeypatch):
    # the rows that pass the scan's floor are evaluated _CHUNK at a time; at
    # r = 104 (a multiple of 4, since the exact tuples need pi/4 on the grid,
    # and other than the 100 of the test below) they fill more than one
    # block, the last one ragged
    blocks = _recorded_blocks(monkeypatch)
    found = scan_distinguishable_omegas(resolution=104)
    assert len(blocks) > 1 and 0 < len(blocks[-1]) < _CHUNK
    assert len(found) == 6
    for k, w in enumerate(sorted(found)):
        assert abs(w - k * math.pi / 6) < 1e-6


def test_scan_finds_the_pi_over_six_grid():
    found = scan_distinguishable_omegas(resolution=100)
    assert len(found) == 6
    for k, w in enumerate(sorted(found)):
        assert abs(w - k * math.pi / 6) < 1e-6
    # no candidate sits at omega = 0: the 0.0 is the partner of the pi/2
    # candidate, folded to 0 from either side
    assert sorted(found)[0] == 0.0


@pytest.mark.parametrize("shift", [-1e-13, 1e-13])
def test_scan_folds_both_ends_of_the_representatives(monkeypatch, shift):
    # 2w of the pi/2 candidate is at pi; moved by a rounding-size shift it
    # gives w just above 0 (partner near pi/2) or a partner just below pi,
    # and both read 0.0
    fake = types.SimpleNamespace(**{k: v for k, v in vars(math).items()
                                    if not k.startswith("_")})
    fake.atan2 = lambda y, x: math.atan2(y, x) + shift
    monkeypatch.setattr(distinguish, "math", fake)
    found = scan_distinguishable_omegas(resolution=100)
    assert len(found) == 6 and sorted(found)[0] == 0.0
    for k, w in enumerate(sorted(found)):
        assert abs(w - k * math.pi / 6) < 1e-6


def test_report_values_are_pinned():
    # the r = 200 scan and the r = 100 exclusion overlaps that report-all
    # prints, by repr: a rounding change in the grids shows here
    assert repr(scan_distinguishable_omegas(resolution=200)) == (
        "[0.0, 0.5235987755982988, 1.0471975511965976, 1.5707963267948966, "
        "2.0943951023931953, 2.617993877991494]")
    assert repr(grid_min_support_overlap(math.pi / 5, 100)) == "0.051929408912818366"
    assert repr(grid_min_support_overlap(math.pi / 4, 100)) == "0.1254782333260226"


def test_the_scan_cut_passes_exactly_three_tuples(monkeypatch):
    # the scan docstring's claim: each tuple below the lam cut is checked
    # through component_table twice, once for the summed support products
    # and once inside is_distinguishing
    calls = []
    table = distinguish.component_table

    def counted(inst):
        calls.append(inst.thetas)
        return table(inst)

    monkeypatch.setattr(distinguish, "component_table", counted)
    for r in (100, 104, 200):
        calls.clear()
        assert len(scan_distinguishable_omegas(resolution=r)) == 6
        assert len(calls) == 6
        assert len(set(calls)) == 3


def test_the_floors_prune_nothing_that_holds_the_answer(monkeypatch):
    # an infinite margin passes every row: the unpruned grid.  The scan's
    # list and the find's argmin tuple (the grid tuple before the
    # disjoint-support test) are the same objects with and without the
    # floors.  The overlap agrees with the word grid to rounding: the word
    # grid is a different contraction, one einsum per front and theta_d in
    # blocks of three
    def answers(margin):
        monkeypatch.setattr(distinguish, "_FLOOR_MARGIN", margin)
        scans = [repr(scan_distinguishable_omegas(resolution=r))
                 for r in (100, 104, 200, 400)]
        with monkeypatch.context() as m:
            m.setattr(distinguish, "is_distinguishing", lambda inst: True)
            finds = [find_distinguishing_thetas(w, resolution=r)
                     for r in (100, 200)
                     for w in (*(k * math.pi / 6 for k in range(6)),
                               math.pi / 5, 1.0)]
        return scans, finds

    pruned = answers(distinguish._FLOOR_MARGIN)
    assert pruned == answers(math.inf)
    monkeypatch.undo()
    for omega in (*FLOOR_OMEGAS, 0.3, math.pi / 12):
        reference = _word_grid_overlaps(omega, 100).min()
        assert abs(grid_min_support_overlap(omega, resolution=100) - reference) < 1e-15


def test_the_find_returns_the_overlap_grid_argmin():
    # one search at fixed omega: the find answers exactly where the grid's
    # minimum overlap passes the disjoint-support test, and its tuple holds
    # that minimum, recomputed from the (16, 2) component table
    for r in (100, 200):
        for omega in (*(k * math.pi / 12 for k in range(12)), math.pi / 5, 1.0, 0.3):
            value = grid_min_support_overlap(omega, resolution=r)
            thetas = find_distinguishing_thetas(omega, resolution=r)
            assert (thetas is None) == (value > SUPPORT_TOL)
            if thetas is not None:
                inst = DistinguishInstance(omega, thetas)
                assert abs(support_overlap(inst) - value) <= 1e-15


def test_the_overlap_evaluates_every_row_that_splits_the_pair(monkeypatch):
    # at k pi/6 the overlap's minimum is rounding noise near 1e-16, which
    # any row holding a splitting tuple can carry; so every such row of the
    # word grid is evaluated.  A margin taken after a square root, sqrt(floor
    # / 8) <= U + margin, drops the rows whose floor is rounding noise
    blocks = _recorded_blocks(monkeypatch)
    for k in range(6):
        omega = k * math.pi / 6
        blocks.clear()
        grid_min_support_overlap(omega, resolution=100)
        split = np.flatnonzero(_word_grid_overlaps(omega, 100).min(axis=-1) < 1e-12)
        assert len(split) and set(split) <= set(np.concatenate(blocks))


def test_the_floors_leave_few_rows_to_evaluate(monkeypatch):
    # the scan at r = 200 evaluates p and q on under a tenth of its 10^4
    # rows; a fall-back to the whole grid would still give the right list
    evaluated = []
    rows_of = distinguish._theta_d_rows

    def counted(coef, e4, rows):
        evaluated.extend(rows)
        return rows_of(coef, e4, rows)

    monkeypatch.setattr(distinguish, "_theta_d_rows", counted)
    assert len(scan_distinguishable_omegas(resolution=200)) == 6
    assert 0 < len(evaluated) == len(set(evaluated)) < 10 ** 4 // 10


def _traced_peak(call, *args):
    call(*args)
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_traced_memory_stays_flat():
    # the five coefficients hold the rows (0.8 MB at r = 200); the 459 rows
    # that pass the floor are evaluated _CHUNK at a time: 1.56 MB traced,
    # where whole (r/2)^3 arrays of p, q and lam would take 32 MB and the
    # passing rows in one block 3.0 MB
    assert _traced_peak(scan_distinguishable_omegas, 200) < 1.7e6


def test_overlap_traced_memory():
    # 0.68 MB traced for the pi/4 grid at r = 100, bounded with 9 %
    # headroom: it evaluates 1,642 of its 2,500 rows _CHUNK at a time, each
    # block forming its own front; the minimum of the two planes' products
    # is taken in the first one's buffer, which numpy fills with no temporary
    assert _traced_peak(grid_min_support_overlap, math.pi / 4, 100) < 0.74e6


def test_scan_traced_memory_at_800():
    # 16.3 MB traced, bounded with 8 % headroom: 12.8 MB of it is the five
    # coefficients.  The 7,455 rows that pass the floor, evaluated in one
    # block instead of _CHUNK at a time, take 134 MB
    assert _traced_peak(scan_distinguishable_omegas, 800) < 17.5e6


def test_scan_rejects_a_grid_without_pi_over_four():
    # off such grids the exact tuples are missed and the scan would find
    # nothing, which reads as a physics failure
    for r in (101, 102):
        with pytest.raises(ValueError, match="multiple of 4"):
            scan_distinguishable_omegas(resolution=r)


def test_find_rejects_a_grid_without_pi_over_four():
    # the find answers at a grid tuple, so it needs the exact tuples on it
    for r in (101, 102):
        with pytest.raises(ValueError, match="multiple of 4"):
            find_distinguishing_thetas(math.pi / 3, resolution=r)


def test_scan_resolution_bounds():
    # 50 is below the floor and 1604 above the ceiling, both multiples of 4;
    # 100.0 is in range but not an integer (before, the grids ran on it)
    for r in (50, 1604, 100.0):
        with pytest.raises(ValueError):
            scan_distinguishable_omegas(resolution=r)
        with pytest.raises(ValueError):
            grid_min_support_overlap(math.pi / 3, resolution=r)
        with pytest.raises(ValueError):
            find_distinguishing_thetas(math.pi / 3, resolution=r)
    # the type is checked before any arithmetic: a string, None and a bool
    # get the integer message, not a TypeError or the multiple-of-4 one
    integer = "resolution must be an integer"
    for r in ("100", None, True):
        with pytest.raises(ValueError, match=integer):
            scan_distinguishable_omegas(resolution=r)
        with pytest.raises(ValueError, match=integer):
            grid_min_support_overlap(math.pi / 3, resolution=r)
        with pytest.raises(ValueError, match=integer):
            find_distinguishing_thetas(math.pi / 3, resolution=r)


def test_excluded_omegas_have_positive_overlap_floor():
    # frozen values of the grid minimum at resolution 100
    resid = grid_min_support_overlap(math.pi / 5, resolution=100)
    assert resid == pytest.approx(0.0519294089, abs=1e-8)
    resid = grid_min_support_overlap(math.pi / 4, resolution=100)
    assert resid == pytest.approx(0.1254782333, abs=1e-8)
    # a distinguishable angle reaches the floor
    assert grid_min_support_overlap(math.pi / 6, resolution=100) < 1e-12


def test_find_distinguishing_thetas():
    for k in range(6):
        thetas = find_distinguishing_thetas(k * math.pi / 6)
        assert thetas is not None
        assert is_distinguishing(DistinguishInstance(k * math.pi / 6, thetas))
        # the answer is a quarter-grid tuple, on the pi/4 lattice of the
        # exact tuples
        steps = np.array(thetas) / (math.pi / 4)
        assert np.allclose(steps, np.round(steps), rtol=0, atol=1e-12)
        assert max(thetas) < math.pi / 2
    assert find_distinguishing_thetas(math.pi / 5) is None


def test_pairing_structure_of_the_special_angles():
    # omega 0, pi/3, 2pi/3 give the three ways of pairing four qubits into
    # two singlets, (12)(34), (13)(24) and (14)(23); each has a product
    # basis splitting the pair
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    pairs = QuantumState(np.kron(singlet, singlet))
    for k, perm in enumerate(((1, 2, 3, 4), (1, 3, 2, 4), (1, 3, 4, 2))):
        w = k * math.pi / 3
        psi = SECTOR @ axis_rows(w)[0]
        assert abs(abs(psi @ permute_qubits(pairs, perm).amplitudes) - 1.0) < 1e-12
        assert find_distinguishing_thetas(w) is not None


def test_exact_certificate_of_the_six_angles():
    # theta_a = 0 and theta_b, theta_c, theta_d on the pi/4 lattice: in exact
    # arithmetic the pairs split by these bases are exactly omega = k pi/6.
    # Shifting one angle by pi/2 permutes the 16 words with signs (quarter
    # grid, test_axis_rows_quarter_turn), and the per-word vectors
    # (A^2 - B^2, 2AB) below are even in the signs, so a lattice tuple and
    # its image in {0, pi/4}^3 have the same set of vectors and split the
    # same omegas: those 8 tuples give the union of all 64
    sp = pytest.importorskip("sympy")
    half = sp.Rational(1, 2)
    phi0, phi1 = sp.zeros(16, 1), sp.zeros(16, 1)
    phi0[0b0101], phi0[0b0110], phi0[0b1001], phi0[0b1010] = half, -half, -half, half
    phi1[0b0011] = phi1[0b1100] = 1 / sp.sqrt(3)
    for w in (0b0101, 0b0110, 0b1001, 0b1010):
        phi1[w] = -half / sp.sqrt(3)
    omega = sp.Symbol("omega", real=True)
    union = sp.EmptySet
    for tail in itertools.product((0, sp.pi / 4), repeat=3):
        bras = sp.Matrix([[1]])
        for t in (0, *tail):
            c, s = sp.cos(t), sp.sin(t)
            bras = sp.kronecker_product(bras, sp.Matrix([[c, s], [s, -c]]))
        # word w splits the pair iff sin 2w (A^2 - B^2) = 2AB cos 2w; the
        # words with (A^2 - B^2, 2AB) != 0 must all be parallel, since two
        # independent ones would force sin 2w = cos 2w = 0
        vecs = [(sp.expand(a * a - b * b), sp.expand(2 * a * b))
                for a, b in zip(bras * phi0, bras * phi1)]
        (a0, b0), *rest = [v for v in vecs if v != (0, 0)]
        if all(sp.expand(a0 * b - b0 * a) == 0 for a, b in rest):
            union = union.union(sp.solveset(
                sp.sin(2 * omega) * a0 - sp.cos(2 * omega) * b0, omega,
                sp.Interval.Ropen(0, sp.pi)))
    assert union == sp.FiniteSet(*(k * sp.pi / 6 for k in range(6)))
    # the closed-form omega of the extreme words agrees at every lattice tuple
    cots = (0.0, 1 / math.sqrt(3), -1 / math.sqrt(3), math.sqrt(3), -math.sqrt(3))
    for tail in itertools.product(range(4), repeat=3):
        cot = omega_from_thetas(0.0, *(k * math.pi / 4 for k in tail))
        if cot is not None:
            assert min(abs(cot - c) for c in cots) < 1e-12


@pytest.mark.parametrize("grid", [grid_min_support_overlap,
                                  find_distinguishing_thetas])
@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
def test_non_finite_omega_fails_before_the_grid(monkeypatch, grid, omega):
    def no_grid(resolution):
        raise AssertionError("grid work on a non-finite omega")

    monkeypatch.setattr(distinguish, "_grid_coefficients", no_grid)
    with pytest.raises(ValueError, match="finite"):
        grid(omega, 100)


def test_instance_validation():
    with pytest.raises(ValueError):
        DistinguishInstance(0.1, (0.0, 0.1, 0.2))
