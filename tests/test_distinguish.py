import math

import numpy as np
import pytest

from dfsbell.distinguish import (_CHUNK, SUPPORT_TOL, DistinguishInstance,
                                 _grid_chunks, component_table,
                                 find_distinguishing_thetas,
                                 grid_min_support_overlap, is_distinguishing,
                                 omega_from_thetas, pair_states,
                                 scan_distinguishable_omegas, support_overlap)

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
    # on words 1bcd, against the direct product-basis components; 101 is
    # not a multiple of the chunk width, so the last block is ragged
    rng = np.random.default_rng(54)
    r = 101
    assert r % _CHUNK
    covered = 0
    for thetas, lo, z in _grid_chunks(r):
        assert lo == covered
        covered += z.shape[2]
        assert z.shape == (r, r, z.shape[2], 8)
        for _ in range(3):
            i, j = rng.integers(r, size=2)
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
    assert covered == r


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


def test_scan_range_restriction():
    found = scan_distinguishable_omegas(resolution=100, omega_range=(0.4, 0.9))
    assert len(found) == 1
    assert abs(found[0] - math.pi / 6) < 1e-6


def test_scan_resolution_floor():
    with pytest.raises(ValueError):
        scan_distinguishable_omegas(resolution=50)
    with pytest.raises(ValueError):
        grid_min_support_overlap(math.pi / 3, resolution=50)
    with pytest.raises(ValueError):
        find_distinguishing_thetas(math.pi / 3, resolution=50)


def test_excluded_omegas_have_positive_overlap_floor():
    # frozen values of the grid minimum at resolution 100
    resid = grid_min_support_overlap(math.pi / 5, resolution=100)
    assert resid == pytest.approx(0.0519294089, abs=1e-8)
    resid = grid_min_support_overlap(math.pi / 4, resolution=100)
    assert resid == pytest.approx(0.1254782333, abs=1e-8)
    # a distinguishable angle reaches the floor
    assert grid_min_support_overlap(math.pi / 6, resolution=100) < 1e-12


def test_find_distinguishing_thetas():
    thetas = find_distinguishing_thetas(math.pi / 3)
    assert thetas is not None
    assert is_distinguishing(DistinguishInstance(math.pi / 3, thetas))
    assert find_distinguishing_thetas(math.pi / 5) is None


def test_pairing_structure_of_the_special_angles():
    # omega 0, pi/3, 2pi/3 correspond to the three ways of pairing four
    # qubits into two singlets; each has a product basis splitting the pair
    for k in range(3):
        w = k * math.pi / 3
        psi, _ = pair_states(w)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        assert find_distinguishing_thetas(w) is not None


def test_instance_validation():
    with pytest.raises(ValueError):
        DistinguishInstance(0.1, (0.0, 0.1, 0.2))
