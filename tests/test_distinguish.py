import itertools
import math

import numpy as np
import pytest

from dfsbell import qcore
from dfsbell.distinguish import (_CHUNK, SUPPORT_TOL, DistinguishInstance,
                                 _grid_chunks, component_table,
                                 find_distinguishing_thetas,
                                 grid_min_support_overlap, is_distinguishing,
                                 omega_from_thetas,
                                 scan_distinguishable_omegas, support_overlap)
from dfsbell.dfs_states import SECTOR, singlet
from dfsbell.qcore import axis_rows, permute_qubits, tensor

F_THETAS = (0.0, 0.0, math.pi / 4, math.pi / 4)


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
    # the kernel's z = A + iB on words 0bcd, and through the bit-flip sign
    # on words 1bcd, against the direct product-basis components; the
    # quarter grid of r = 100 has 50 angles, not a multiple of the chunk
    # width, so the last block is ragged
    rng = np.random.default_rng(54)
    r = 100
    assert (r // 2) % _CHUNK
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


def _reductions(table):
    # p - |q| over the words 0bcd, the support overlap and the find
    # objective, from a (16, 2) table of (psi, perp) components
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


def test_scan_with_a_ragged_last_chunk():
    # the exact tuples need pi/4 on the grid, so the resolution is a
    # multiple of 4 but not of the chunk width, and other than the 100 of
    # the test below
    r = next(n for n in range(104, 200, 4) if n % _CHUNK)
    found = scan_distinguishable_omegas(resolution=r)
    assert len(found) == 6
    for k, w in enumerate(sorted(found)):
        assert abs(w - k * math.pi / 6) < 1e-6


def test_scan_finds_the_pi_over_six_grid():
    found = scan_distinguishable_omegas(resolution=100)
    assert len(found) == 6
    for k, w in enumerate(sorted(found)):
        assert abs(w - k * math.pi / 6) < 1e-6
    # no candidate sits at omega = 0: the 0.0 is the partner of the pi/2
    # candidate, folded from pi
    assert sorted(found)[0] == 0.0


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
    # 50 is below the floor and 1604 above the ceiling, both multiples of 4
    for r in (50, 1604):
        with pytest.raises(ValueError):
            scan_distinguishable_omegas(resolution=r)
        with pytest.raises(ValueError):
            grid_min_support_overlap(math.pi / 3, resolution=r)
        with pytest.raises(ValueError):
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
    pairs = tensor(singlet(), singlet())
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


def test_instance_validation():
    with pytest.raises(ValueError):
        DistinguishInstance(0.1, (0.0, 0.1, 0.2))
