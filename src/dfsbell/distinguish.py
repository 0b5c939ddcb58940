"""Which singlet-sector state pairs can fixed product measurements tell apart.

A pair is parametrized by omega: |psi> = cos(w)|phi0> + sin(w)|phi1> together
with its orthogonal complement.  Each qubit k is measured along an x-z plane
direction theta_k (basis |0_k> = cos t|0> + sin t|1>, |1_k> = sin t|0> -
cos t|1>).  The pair is reliably distinguishable iff the two states have
disjoint supports over the 16 product-basis words.

The restriction to x-z plane axes is an assumption recorded here, not a
proven reduction.  Fixing theta_a = 0 in the scans, however, loses nothing:
rotating all four axes by a common angle is a collective SU(2) rotation,
which leaves every singlet-sector state exactly invariant, so the component
table depends only on the angle differences.

The grid scans rest on exact identities.

Complex packing.  phi0, phi1 and the axis rows are real, so the components
(A_w, B_w) of (phi0, phi1) on word w are the real and imaginary parts of the
single component z_w = A_w + i B_w of phi0 + i phi1, and one contraction
gives both.  The pair's components at angle omega are then

    e^{-i omega} z_w = psi_w - i perp_w,

so the support overlap is max_w min(|Re|, |Im|) of e^{-i omega} z_w and the
summed squared support products are sum_w (Re * Im)^2.

Half the words.  Flipping all four bits multiplies a component by
(-1)^(number of zeros) (test_component_complement_symmetry), and with
theta_a = 0 the qubit-a row of bit 0 is [1, 0].  So the 8 words 0bcd, taken
from the first half of the state, carry everything: a sum of squares over
16 words is twice the sum over those 8, and a maximum of magnitudes is the
same.

Quarter grid.  axis_rows(t + pi/2) is axis_rows(t) with its two rows swapped
and the new first row negated (test_axis_rows_quarter_turn).  So after
shifting theta_b, theta_c or theta_d by pi/2, the component of word w is the
old component of w with that qubit's bit flipped, negated where the bit of w
is 0; with theta_a = 0 the 8 words 0bcd map onto themselves.  The per-tuple
reductions (p, q and the omega they give, the overlap max_w min(|Re|, |Im|)
and sum_w (Re * Im)^2) are unchanged by a permutation of words with signs,
so the grids cover [0, pi/2)^3 with spacing pi/r, and every tuple of
[0, pi)^3 has the values of its image there
(test_quarter_grid_images_carry_the_same_reductions).

Closed-form omega.  Writing z^2 = (A^2 - B^2) + i 2AB, the 2x2 moment
matrix of the vectors (A^2 - B^2, 2AB) over the 16 words has, with
p = sum |z^2|^2 and q = sum z^4 over the 8 words 0bcd,

    lam_min = p - |q|,   sxx = p + Re q,   sxy = Im q,

and its small eigenvector gives the only omega that can split the pair at
that theta tuple.  The summed squared support products sum_w (Re * Im)^2
of e^{-i omega} z over the words 0bcd are (p - Re(e^{-4i omega} q)) / 8,
since (Re u Im u)^2 = (|u|^4 - Re u^4) / 8.

Closed form in theta_d.  With qubits b and c contracted, the components
(F0, F1) of qubit d's computational bits give, at theta_d = t and e =
e^{it}, z = A e + B / e for d = 0 and z = -i (A e - B / e) for d = 1, with
A = (F0 - i F1) / 2 and B = (F0 + i F1) / 2.  Summed over d, and then over
the bits b and c (test_theta_d_sums_are_polynomial_identities),

    p(t) = P0 + 2 Re(P4 e^{4it}),   q(t) = Q4 e^{4it} + Q0 + Q-4 e^{-4it},

with P0 = 2 sum (|A|^4 + |B|^4 + 4 |A|^2 |B|^2), P4 = 2 sum A^2 conj(B)^2,
Q4 = 2 sum A^4, Q0 = 12 sum A^2 B^2 and Q-4 = 2 sum B^4.  So the scan
takes five numbers per (theta_b, theta_c) and evaluates p and q on the
theta_d grid, with no word grid.  The overlap max_w min(|Re|, |Im|)
has no such form and evaluates the words: it contracts qubit c once at
every grid angle, then qubit b on each row it evaluates, then qubit d at
every theta_d as one real product for each of the planes Re and Im.

Closed form in theta_b and theta_c.  Each coefficient sums, over the bits b
and c, a quartic form in qubit b's row, and the row of bit 1 at t is minus
the row of bit 0 at t + pi/2 (quarter turn); so the sum is f(t) + f(t +
pi/2), which keeps only the harmonics 0 and +-4t, and likewise for c.  Each
coefficient is thus basis_b T basis_c^T over (1, E, 1/E), E = e^{4i theta},
with 576 T a constant 3x3 table over Z[i sqrt3] (_TABLES, exact by
test_coefficient_tables_are_exact); P0 = (9 + cos 4theta_b + cos 4theta_c +
cos 4(theta_b - theta_c)) / 48.  The grid's coefficients take two small
products, with no word component.

Row floors.  The five coefficients also bound each (theta_b, theta_c) row
over all theta_d.  With E = e^{4it} and rho = e^{-4i omega},

    p - |q| >= P0 - 2 |P4| - |Q4| - |Q0| - |Q-4|,
    p - Re(rho q) = C0 + Re(C4 E) >= C0 - |C4|,
    8 ov^2 >= C0 - |C4|,

with C0 = P0 - Re(rho Q0) and C4 = 2 P4 - rho Q4 - conj(rho Q-4), so C0 -
|C4| is the exact minimum over t of 8 sum_w (psi_w perp_w)^2.  The third
holds for the overlap ov = max_w min(|psi_w|, |perp_w|) because psi_w^2 +
perp_w^2 = |z_w|^2 and the 8 words 0bcd carry sum |z_w|^2 = 1, so sum
(psi_w perp_w)^2 <= ov^2 sum max(|psi_w|, |perp_w|)^2 <= ov^2.  The scan
evaluates only the rows whose first floor is below its cut on lam.  At
fixed omega only the overlap's search evaluates rows: the row with the
smallest floor first, whose best value U bounds the answer, then, in
row-major order, every row whose floor is at most 8 U^2.  So its minimum,
and the first tuple in row-major order that attains it, which the find
returns, are those of the whole grid.  Each comparison allows _FLOOR_MARGIN
for rounding, on the floor's own scale: a margin added after a square root
would be far too small next to the floors' rounding, which near ov = 0 is
many times 8 ov^2.

Answers at grid tuples.  With theta_a = 0 and theta_b, theta_c, theta_d on
the pi/4 lattice {0, pi/4, pi/2, 3pi/4}, exactly the six angles k pi/6 are
split (test_exact_certificate_of_the_six_angles, in exact arithmetic).  The
grids have a multiple of 4 points per angle (``check_resolution``), so they
contain {0, pi/4}, the quarter-grid images of that lattice: the scan checks
each candidate at its grid tuple with the closed-form omega, and the find
returns the grid tuple of smallest overlap, with no local search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dfs_states import SECTOR
from .qcore import axis_rows, check_count, product_bras

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
# E = e^{4i theta} (Closed form in theta_b and theta_c)
_TABLES = np.array([
    [[[108, 6, 6], [6, 0, 6], [6, 6, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]]],
    [[[6, 0, 6], [0, 0, 2], [6, 2, 2]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]]],
    [[[-6, 0, 12], [0, 0, -1], [-6, 2, -1]], [[6, 0, 0], [0, 0, -1], [-6, 0, 1]]],
    [[[0, -6, -6], [12, 0, -6], [12, -6, 0]], [[0, -6, -6], [0, 0, 6], [0, 6, 0]]],
    [[[-6, 12, 0], [-6, -1, 2], [0, -1, 0]], [[6, 0, 0], [-6, 1, 0], [0, -1, 0]]],
])


def _check_finite(*angles):
    """Raise ValueError unless every angle is finite."""
    if not all(math.isfinite(t) for t in angles):
        raise ValueError(f"angles must be finite, got {angles}")


@dataclass(frozen=True)
class DistinguishInstance:
    """One candidate: pair angle omega plus the four measurement angles."""

    omega: float
    thetas: tuple

    def __post_init__(self):
        if len(self.thetas) != 4:
            raise ValueError("exactly four measurement angles required")
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        _check_finite(self.omega, *self.thetas)


def component_table(inst: DistinguishInstance) -> np.ndarray:
    """(16, 2) array: column 0 components of |psi>, column 1 of |psi_perp>;
    the pair is the sector basis turned by the rows of ``axis_rows(omega)``."""
    return product_bras(inst.thetas) @ SECTOR @ axis_rows(inst.omega).T


def support_overlap(inst: DistinguishInstance) -> float:
    """max over basis words of min(|psi component|, |perp component|).

    Zero (below SUPPORT_TOL) means disjoint supports: every word identifies
    at most one of the two states.
    """
    table = np.abs(component_table(inst))
    return float(np.min(table, axis=1).max())


def is_distinguishing(inst: DistinguishInstance) -> bool:
    """True iff no basis word carries both states above ``SUPPORT_TOL``."""
    return support_overlap(inst) <= SUPPORT_TOL


def omega_from_thetas(theta_a: float, theta_b: float,
                      theta_c: float, theta_d: float):
    """cot(omega) required to zero the first (and last) component, or None.

    Returns None in the degenerate cases theta_a = theta_b or theta_c =
    theta_d (mod pi), where the all-zeros word has no component for any
    omega and the condition is empty.
    """
    sab = math.sin(theta_a - theta_b)
    scd = math.sin(theta_c - theta_d)
    if abs(sab) < _DEGENERATE_TOL or abs(scd) < _DEGENERATE_TOL:
        return None
    num = math.cos(theta_a + theta_b - theta_c - theta_d) \
        - math.cos(theta_a - theta_b) * math.cos(theta_c - theta_d)
    return num / (math.sqrt(3.0) * sab * scd)


def check_resolution(resolution: int) -> int:
    """The grid rule: a multiple of 4 from 100 to 1600 points per angle.

    A multiple of 4 puts pi/4, and with it the images of the exact tuples, on
    the grid (module docstring).  The scan's traced peak memory grows as r^2
    (4.7 MB at r = 400), so r = 1600 takes about 61 MB and 0.5 s.  Returns
    the resolution as an int; raises ValueError otherwise.
    """
    if resolution % 4 or not 100 <= resolution <= 1600:
        raise ValueError("resolution must be a multiple of 4 from 100 to 1600 "
                         "points per angle, so that pi/4 is on the grid")
    return check_count("resolution", resolution)


def _grid_coefficients(resolution: int):
    """``(thetas, coef)`` of the quarter grid, with no word component.

    ``thetas`` is the r/2 angles k pi/r on [0, pi/2); ``coef`` holds the
    five coefficients (P0, P4, Q4, Q0, Q-4) of the closed form in theta_d,
    each flat over the rows i * r/2 + j at (thetas[i], thetas[j]), as
    basis_b T basis_c^T from _TABLES (Closed form in theta_b and theta_c).
    P0 is real.  The resolution follows ``check_resolution``.
    """
    r = check_resolution(resolution)
    thetas = np.arange(r // 2) * (math.pi / r)
    e4 = np.exp(4j * thetas)
    basis = np.stack([np.ones(len(thetas)), e4, e4.conj()], axis=1)
    tables = (_TABLES[:, 0] + 1j * math.sqrt(3) * _TABLES[:, 1]) / 576
    # this association keeps the printed values (test_report_values_are_pinned)
    coef = (basis @ (tables @ basis.T)).reshape(5, -1)
    return thetas, (coef[0].real, *coef[1:])


def _theta_d_rows(coef, e4, rows):
    """``(p, q)`` on the given rows at every theta_d, each (len(rows), r/2).

    ``p`` = sum |z^2|^2 and ``q`` = sum z^4 over the words 0bcd, from the
    coefficients ``coef`` of ``_grid_coefficients`` and ``e4`` =
    e^{4i theta_d} on the grid.
    """
    p0, p4, q4, q0, qm4 = (c[rows, None] for c in coef)
    return p0 + 2 * (p4 * e4).real, q4 * e4 + q0 + qm4 * e4.conj()


def _lam_floor(coef):
    """P0 - 2|P4| - |Q4| - |Q0| - |Q-4| of each row: a floor of lam = p - |q|
    at every theta_d (Row floors)."""
    p0, p4, q4, q0, qm4 = coef
    return p0 - 2 * np.abs(p4) - np.abs(q4) - np.abs(q0) - np.abs(qm4)


def _objective_floor(coef, rot4):
    """C0 - |C4| of each row, with ``rot4`` = e^{-4i omega}: the minimum over
    theta_d of 8 sum_w (psi_w perp_w)^2, and a floor of 8 ov^2 (Row floors)."""
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
    """All omega (mod pi) admitting a distinguishing product basis, sorted.

    Grid search over (theta_b, theta_c, theta_d) with theta_a = 0 (exact
    reduction, see module docstring), spacing pi / ``resolution``, over
    [0, pi/2)^3, which carries every value of [0, pi)^3 (quarter grid).
    For each tuple the best omega is closed-form: a word splits the pair iff
    sin(2w) (A^2 - B^2) = cos(2w) 2AB where (A, B) are the word's components
    of (phi0, phi1), so all words must agree on 2w mod pi; the smallest
    eigenvalue of the 2x2 moment matrix of the vectors (A^2 - B^2, 2AB)
    measures the disagreement and its eigenvector gives the candidate omega.
    The eigenvalue comes from the closed form in theta_d (module docstring),
    on the rows whose floor can reach the cut (Row floors).  Each candidate
    with eigenvalue below 1e-5 counts when, at its grid tuple and that
    omega, the summed squared support products sum_w (psi_w perp_w)^2 are
    at most 1e-20 and the disjoint-support test passes.  At
    r = 100, 104, 200 and 400 the cut passes exactly three tuples, the
    images of the exact ones with omega = pi/6, pi/3 and pi/2
    (test_the_scan_cut_passes_exactly_three_tuples), so the counted angles
    need no clustering.

    Since a pair and its omega + pi/2 partner are the same two states with
    roles swapped, every counted omega contributes both representatives.

    Parameters
    ----------
    resolution : int
        Grid points per angle on [0, pi), of which the scan evaluates the
        r/2 on [0, pi/2); as ``check_resolution`` allows (near-misses on
        grids without pi/4 stay above the candidate cut, and nothing is
        found).
    refine_tol : float
        Fold width: a representative within ``refine_tol`` of 0 or of pi is
        reported as 0.  Kept while the benchmark's scan passes it (ROADMAP
        item 1, test_benchmark_calls_match_the_package).
    """
    thetas, coef = _grid_coefficients(resolution)
    e4 = np.exp(4j * thetas)
    found = []
    for rows in _rows_below(_lam_floor(coef), 1e-5):
        p, q = _theta_d_rows(coef, e4, rows)
        # the 16-word lam_min of the module docstring
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
    in row-major order that attains it (Row floors)."""
    _check_finite(omega)
    rot = complex(math.cos(omega), -math.sin(omega))
    thetas, coef = _grid_coefficients(resolution)
    floor = _objective_floor(coef, rot ** 4)
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
    """Smallest support overlap achievable at fixed omega over the theta grid.

    A value far above SUPPORT_TOL certifies that no grid basis distinguishes
    the pair at this omega.  ``resolution`` is as for the scan.
    """
    return _min_overlap(omega, resolution)[0]


def find_distinguishing_thetas(omega: float, resolution: int = 100):
    """A grid theta tuple making the pair at omega distinguishable, or None.

    The tuple whose overlap ``grid_min_support_overlap`` reports (the first
    in row-major order on a tie), if it passes the disjoint-support test:
    (0, theta_b, theta_c, theta_d), the last three in [0, pi/2) (quarter
    grid).  ``resolution`` is as for the scan.
    """
    inst = DistinguishInstance(omega, _min_overlap(omega, resolution)[1])
    return inst.thetas if is_distinguishing(inst) else None
