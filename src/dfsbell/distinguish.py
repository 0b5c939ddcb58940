"""Which singlet-sector state pairs can fixed product measurements tell apart.

The pair at omega is |psi> = cos(w)|phi0> + sin(w)|phi1> and its orthogonal
complement.  Each qubit k is measured along an x-z plane angle theta_k, and
the pair is reliably distinguishable iff its two states have disjoint
supports over the 16 product-basis words.  The restriction to x-z plane
axes is an assumption recorded here, not a proven reduction; theta_a = 0
loses nothing, since a common shift of all four angles is a collective
rotation, which leaves every sector state invariant.

The grids rest on exact identities, each derived in the docstring of the
test that checks it: the complex packing z = A + i B
(test_grid_chunks_match_component_table), half the words
(test_component_complement_symmetry), the quarter grid
(test_quarter_grid_images_carry_the_same_reductions), the closed-form omega
(test_theta_d_closed_form_matches_the_word_grid), the closed forms in
theta_d (test_theta_d_sums_are_polynomial_identities) and in theta_b and
theta_c (test_coefficient_tables_are_exact), the row floors
(test_row_floors_bound_every_tuple), the overlap's search
(test_the_floors_prune_nothing_that_holds_the_answer) and the answers at
grid tuples (test_exact_certificate_of_the_six_angles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dfs_states import SECTOR
from .qcore import axis_rows, check_count, check_finite, kron

SUPPORT_TOL = 1e-8

_DEGENERATE_TOL = 1e-12

# Rows per block: the (theta_b, theta_c) rows that pass the floors are
# evaluated over the whole theta_d axis this many at a time, so a block holds
# _CHUNK * r/2 values of p, q and lam, or _CHUNK * r/2 * 16 reals of the
# overlap's words, whatever the number of rows that pass.
_CHUNK = 64

# Rounding margin of the row floors.  A floor and the values it bounds are
# short sums of products of entries of size at most 1, each rounded to about
# 1e-15; 1e-12 covers that a thousandfold, and lets through beyond the exact
# bound only the rows whose floor lies within 1e-12 of it.
_FLOOR_MARGIN = 1e-12

# 576 T = a + b i sqrt3 for each coefficient (P0, P4, Q4, Q0, Q-4), as
# (a, b); rows index theta_b and columns theta_c over the basis (1, E, 1/E),
# E = e^{4i theta} (test_coefficient_tables_are_exact)
_TABLES = np.array([
    [[[108, 6, 6], [6, 0, 6], [6, 6, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]]],
    [[[6, 0, 6], [0, 0, 2], [6, 2, 2]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]]],
    [[[-6, 0, 12], [0, 0, -1], [-6, 2, -1]], [[6, 0, 0], [0, 0, -1], [-6, 0, 1]]],
    [[[0, -6, -6], [12, 0, -6], [12, -6, 0]], [[0, -6, -6], [0, 0, 6], [0, 6, 0]]],
    [[[-6, 12, 0], [-6, -1, 2], [0, -1, 0]], [[6, 0, 0], [-6, 1, 0], [0, -1, 0]]],
])


@dataclass(frozen=True)
class DistinguishInstance:
    """One candidate: pair angle omega plus the four measurement angles."""

    omega: float
    thetas: tuple

    def __post_init__(self):
        if len(self.thetas) != 4:
            raise ValueError("exactly four measurement angles required")
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        check_finite(self.omega, *self.thetas)


def component_table(inst: DistinguishInstance) -> np.ndarray:
    """(16, 2) array: column 0 components of |psi>, column 1 of |psi_perp>,
    the sector basis turned by the rows of ``axis_rows(omega)``."""
    return kron([axis_rows(t) for t in inst.thetas]) @ SECTOR @ axis_rows(inst.omega).T


def support_overlap(inst: DistinguishInstance) -> float:
    """max over basis words of min(|psi component|, |perp component|); at
    most SUPPORT_TOL means disjoint supports."""
    table = np.abs(component_table(inst))
    return float(np.min(table, axis=1).max())


def is_distinguishing(inst: DistinguishInstance) -> bool:
    """True iff no basis word carries both states above ``SUPPORT_TOL``."""
    return support_overlap(inst) <= SUPPORT_TOL


def omega_from_thetas(theta_a: float, theta_b: float,
                      theta_c: float, theta_d: float):
    """cot(omega) that zeroes the first (and last) component, or None where
    theta_a = theta_b or theta_c = theta_d (mod pi) and no omega does;
    ValueError unless every angle is finite."""
    check_finite(theta_a, theta_b, theta_c, theta_d)
    sab = math.sin(theta_a - theta_b)
    scd = math.sin(theta_c - theta_d)
    if abs(sab) < _DEGENERATE_TOL or abs(scd) < _DEGENERATE_TOL:
        return None
    num = math.cos(theta_a + theta_b - theta_c - theta_d) \
        - math.cos(theta_a - theta_b) * math.cos(theta_c - theta_d)
    return num / (math.sqrt(3.0) * sab * scd)


def check_resolution(resolution: int) -> int:
    """``resolution`` as an int if it is a multiple of 4 from 100 to 1600
    points per angle; ValueError otherwise, the type checked first.

    A multiple of 4 puts pi/4, and with it the images of the exact tuples, on
    the grid.  The ceiling bounds the scan's memory, which grows as r^2.
    """
    rule = ("must be a multiple of 4 from 100 to 1600 points per angle, so "
            "that pi/4 is on the grid")
    r = check_count("resolution", resolution, rule)
    if r % 4 or not 100 <= r <= 1600:
        raise ValueError(f"resolution {rule}")
    return r


def _grid_coefficients(resolution: int):
    """``(thetas, coef)``: the r/2 angles k pi/r on [0, pi/2), and the five
    coefficients (P0, P4, Q4, Q0, Q-4) of the closed form in theta_d, each
    flat over the rows i * r/2 + j at (thetas[i], thetas[j]), P0 real, as
    basis_b T basis_c^T from _TABLES (test_coefficient_tables_are_exact)."""
    r = check_resolution(resolution)
    thetas = np.arange(r // 2) * (math.pi / r)
    e4 = np.exp(4j * thetas)
    basis = np.stack([np.ones(len(thetas)), e4, e4.conj()], axis=1)
    tables = (_TABLES[:, 0] + 1j * math.sqrt(3) * _TABLES[:, 1]) / 576
    # this association keeps the printed values (test_report_values_are_pinned)
    coef = (basis @ (tables @ basis.T)).reshape(5, -1)
    return thetas, (coef[0].real, *coef[1:])


def _theta_d_rows(coef, e4, rows):
    """``(p, q)`` = (sum |z^2|^2, sum z^4) over the words 0bcd on the given
    rows at every theta_d, each (len(rows), r/2), from ``coef`` and ``e4`` =
    e^{4i theta_d} (test_theta_d_sums_are_polynomial_identities)."""
    p0, p4, q4, q0, qm4 = (c[rows, None] for c in coef)
    return p0 + 2 * (p4 * e4).real, q4 * e4 + q0 + qm4 * e4.conj()


def _lam_floor(coef):
    """P0 - 2|P4| - |Q4| - |Q0| - |Q-4| of each row: a floor of lam = p - |q|
    at every theta_d (test_row_floors_bound_every_tuple)."""
    p0, p4, q4, q0, qm4 = coef
    return p0 - 2 * np.abs(p4) - np.abs(q4) - np.abs(q0) - np.abs(qm4)


def _overlap_floor(coef, rot4):
    """C0 - |C4| of each row, with ``rot4`` = e^{-4i omega}: the minimum over
    theta_d of 8 sum_w (psi_w perp_w)^2, and a floor of 8 ov^2
    (test_row_floors_bound_every_tuple)."""
    p0, p4, q4, q0, qm4 = coef
    c4 = 2 * p4 - rot4 * q4 - (rot4 * qm4).conj()
    return p0 - (rot4 * q0).real - np.abs(c4)


def _rows_below(floor, bound):
    """Yield the rows whose ``floor`` is at most ``bound`` plus _FLOOR_MARGIN,
    in row-major order, _CHUNK rows at a time."""
    rows = np.flatnonzero(floor <= bound + _FLOOR_MARGIN)
    for lo in range(0, len(rows), _CHUNK):
        yield rows[lo:lo + _CHUNK]


def scan_distinguishable_omegas(resolution: int = 200,
                                refine_tol: float = 1e-3) -> list:
    """All omega (mod pi) admitting a distinguishing grid basis, sorted.

    The grid has theta_a = 0 and (theta_b, theta_c, theta_d) at spacing
    pi / ``resolution`` over [0, pi/2)^3, ``resolution`` as
    ``check_resolution`` allows.  At each tuple whose lam = p - |q| is below
    1e-5, the moment matrix's small eigenvector gives the one candidate
    omega, which counts when its summed squared support products are at most
    1e-20 and ``is_distinguishing`` passes
    (test_the_scan_cut_passes_exactly_three_tuples).  A counted omega adds
    itself and its partner omega + pi/2, the same two states with roles
    swapped; a representative within ``refine_tol`` of 0 or pi reads 0.
    ``refine_tol`` is kept while the benchmark's scan passes it (ROADMAP
    item 1, test_benchmark_calls_match_the_package).
    """
    thetas, coef = _grid_coefficients(resolution)
    e4 = np.exp(4j * thetas)
    found = []
    for rows in _rows_below(_lam_floor(coef), 1e-5):
        p, q = _theta_d_rows(coef, e4, rows)
        # lam_min (test_theta_d_closed_form_matches_the_word_grid)
        lam = p - np.abs(q)
        for m, k in np.argwhere(lam < 1e-5):
            # eigenvector (u0, u1) = (sin 2w, -cos 2w) for the small eigenvalue
            u0 = q[m, k].imag
            u1 = lam[m, k] - (p[m, k] + q[m, k].real)
            if u0 == 0.0 and u1 == 0.0:
                u0 = 1.0
            w = 0.5 * (math.atan2(u0, -u1) % math.pi)
            i, j = divmod(rows[m], len(thetas))
            inst = DistinguishInstance(w, (0.0, thetas[i], thetas[j], thetas[k]))
            psi, perp = component_table(inst).T
            if np.sum((psi * perp) ** 2) > 1e-20 or not is_distinguishing(inst):
                continue
            for rep in (w, (w + math.pi / 2) % math.pi):
                found.append(0.0 if min(rep, math.pi - rep) < refine_tol else rep)
    return sorted(found)


def _min_overlap(omega: float, resolution: int):
    """``(value, thetas)``: the smallest support overlap at fixed omega over
    the theta grid, and the first grid tuple (0, theta_b, theta_c, theta_d)
    in row-major order that attains it
    (test_the_floors_prune_nothing_that_holds_the_answer)."""
    check_finite(omega)
    rot = complex(math.cos(omega), -math.sin(omega))
    thetas, coef = _grid_coefficients(resolution)
    floor = _overlap_floor(coef, rot ** 4)
    # the blocks read only the floor; freed, the coefficients leave the
    # traced peak (0.2 MB of it at r = 100)
    del coef
    n = len(thetas)
    axes = np.stack([axis_rows(t) for t in thetas])
    # the complex packing phi0 + i phi1; qubit a at theta 0 keeps the i = 0
    # half, indexed (j, k, l) by the computational bits of qubits b, c, d
    phi = (SECTOR @ np.array([1, 1j])).reshape(2, 2, 2, 2)[0]
    # qubit c at every angle, one real product: half[j] holds the real
    # columns (c, l, re/im) at theta_c = thetas[j], by qubit b's bit
    half = axes.reshape(2 * n, 2) @ phi.transpose(1, 0, 2).reshape(2, 4).view(float)
    half = half.reshape(n, 2, 2, 4).transpose(0, 2, 1, 3).reshape(n, 2, 8)
    # qubit d at every angle: dcols[l] holds the real columns (d, theta_d)
    # of qubit d's computational bit l
    dcols = axes.transpose(2, 1, 0).reshape(2, 2 * n)

    def overlap(rows):
        # qubit b on the block's own rows, then e^{-i omega} turned into the
        # front, rows (row, b, c) by qubit d's bit: Re and -Im of its product
        # with dcols are the psi and psi_perp components of the words 0bcd
        i, j = np.divmod(rows, n)
        f = rot * (axes[i] @ half[j]).view(complex).reshape(4 * len(rows), 2)
        psi, perp = np.abs(f.real @ dcols), np.abs(f.imag @ dcols)
        return np.minimum(psi, perp, out=psi).reshape(len(rows), 8, n).max(axis=1)

    bound = overlap([np.argmin(floor)]).min()
    best = (math.inf, None)
    # 8 ov^2 >= floor: the margin goes on that scale, before any square root
    for rows in _rows_below(floor, 8 * bound * bound):
        ov = overlap(rows)
        m, k = np.unravel_index(np.argmin(ov), ov.shape)
        if ov[m, k] < best[0]:
            best = (float(ov[m, k]), (*divmod(rows[m], n), k))
    return best[0], (0.0, *thetas[list(best[1])])


def grid_min_support_overlap(omega: float, resolution: int = 200) -> float:
    """Smallest support overlap at fixed omega over the theta grid of the
    scan; far above SUPPORT_TOL, no grid basis splits the pair."""
    return _min_overlap(omega, resolution)[0]


def find_distinguishing_thetas(omega: float, resolution: int = 100):
    """The grid tuple (0, theta_b, theta_c, theta_d) whose overlap
    ``grid_min_support_overlap`` reports, the first in row-major order, if
    it passes ``is_distinguishing``; None otherwise."""
    inst = DistinguishInstance(omega, _min_overlap(omega, resolution)[1])
    return inst.thetas if is_distinguishing(inst) else None
