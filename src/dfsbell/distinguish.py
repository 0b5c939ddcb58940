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

The grid scans rest on three exact identities.

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
and the find objective sum_w (Re * Im)^2) are unchanged by a permutation of
words with signs, so the grids cover [0, pi/2)^3 with spacing pi/r, and
every tuple of [0, pi)^3 has the values of its image there
(test_quarter_grid_images_carry_the_same_reductions).

Closed-form omega.  Writing z^2 = (A^2 - B^2) + i 2AB, the 2x2 moment
matrix of the vectors (A^2 - B^2, 2AB) over the 16 words has, with
p = sum |z^2|^2 and q = sum z^4 over the 8 words 0bcd,

    lam_min = p - |q|,   sxx = p + Re q,   sxy = Im q,

and its small eigenvector gives the only omega that can split the pair at
that theta tuple.  The find objective sum_w (Re * Im)^2 of e^{-i omega} z
over the words 0bcd is (p - Re(e^{-4i omega} q)) / 8, since (Re u Im u)^2
= (|u|^4 - Re u^4) / 8.

Closed form in theta_d.  With qubits b and c contracted, the components
(F0, F1) of qubit d's computational bits give, at theta_d = t and e =
e^{it}, z = A e + B / e for d = 0 and z = -i (A e - B / e) for d = 1, with
A = (F0 - i F1) / 2 and B = (F0 + i F1) / 2.  Summed over d, and then over
the bits b and c (test_theta_d_sums_are_polynomial_identities),

    p(t) = P0 + 2 Re(P4 e^{4it}),   q(t) = Q4 e^{4it} + Q0 + Q-4 e^{-4it},

with P0 = 2 sum (|A|^4 + |B|^4 + 4 |A|^2 |B|^2), P4 = 2 sum A^2 conj(B)^2,
Q4 = 2 sum A^4, Q0 = 12 sum A^2 B^2 and Q-4 = 2 sum B^4.  So the scan and
the find compute five numbers per (theta_b, theta_c) and evaluate p and q
on the theta_d grid, with no word grid.  The overlap max_w min(|Re|, |Im|)
has no such form and keeps the word grid.

Answers at grid tuples.  With theta_a = 0 and theta_b, theta_c, theta_d on
the pi/4 lattice {0, pi/4, pi/2, 3pi/4}, exactly the six angles k pi/6 are
split (test_exact_certificate_of_the_six_angles, in exact arithmetic).  The
grids have a multiple of 4 points per angle (``check_resolution``), so they
contain {0, pi/4}, the quarter-grid images of that lattice: the scan checks
each candidate at its grid tuple with the closed-form omega, and the find
returns the best grid tuple, with no local search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dfs_states import SECTOR
from .qcore import axis_rows, product_bras

SUPPORT_TOL = 1e-8

_DEGENERATE_TOL = 1e-12

# Angles per grid block: theta_d values per word block of the overlap grid,
# theta_b values per block of p and q in the scan and the find.  Small
# blocks run fastest (widths 1 to 4 tie within noise for both, wider ones
# are slower) and keep each block array at (r/2)^2 * 24 complex values for
# the words, (r/2)^2 * 3 for p and q; 3 divides neither 50 nor 100, so the
# usual resolutions 100 and 200 also exercise the ragged last block.
_CHUNK = 3


@dataclass(frozen=True)
class DistinguishInstance:
    """One candidate: pair angle omega plus the four measurement angles."""

    omega: float
    thetas: tuple

    def __post_init__(self):
        if len(self.thetas) != 4:
            raise ValueError("exactly four measurement angles required")
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))


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
    (26 MB at r = 400), so r = 1600 takes about 0.4 GB and 25 s.  Returns
    the resolution; raises ValueError otherwise.
    """
    if resolution % 4 or not 100 <= resolution <= 1600:
        raise ValueError("resolution must be a multiple of 4 from 100 to 1600 "
                         "points per angle, so that pi/4 is on the grid")
    return resolution


def _front(resolution: int):
    """``(thetas, rows, front)`` of the quarter grid, qubits b and c contracted.

    ``thetas`` is the r/2 angles k pi/r on [0, pi/2) and ``rows`` their
    ``axis_rows``; ``front[i, j, b, c, l]`` is the component of phi0 + i phi1
    with qubit a on bit 0 at theta 0, qubit b on bit b at thetas[i], qubit c
    on bit c at thetas[j], and qubit d still in the computational index l.
    The resolution follows ``check_resolution``.
    """
    r = check_resolution(resolution)
    thetas = np.arange(r // 2) * (math.pi / r)
    rows = np.stack([axis_rows(t) for t in thetas])
    # the complex packing phi0 + i phi1
    phi = SECTOR @ np.array([1, 1j])
    # qubit a at theta 0 keeps the i = 0 half; contract qubits b and c once
    front = np.einsum("rbj,sck,jkl->rsbcl", rows, rows, phi.reshape(2, 2, 2, 2)[0])
    return thetas, rows, front


def _grid_chunks(resolution: int):
    """Yield ``(thetas, lo, z)`` over the quarter grid, one theta_d block at a time.

    Only ``grid_min_support_overlap`` reads the word grid: its max-min over
    words has no closed form in theta_d, while the scan and the find reduce
    through ``_theta_d_blocks``.  ``z[i, j, k, w]`` is the product component
    of phi0 + i phi1 for the word 0bcd (w = 4b + 2c + d) at angles (0,
    thetas[i], thetas[j], thetas[lo + k]); the 1bcd words follow by the
    bit-flip sign (see module docstring).  Each block holds (r/2)^2 * _CHUNK
    * 8 complex values.
    """
    thetas, rows, front = _front(resolution)
    n = len(thetas)
    # real columns (b, c, l, re/im) of the complex front
    front = front.reshape(n * n, 8).view(float)
    eye = np.eye(2)
    for lo in range(0, n, _CHUNK):
        md = rows[lo:lo + _CHUNK]
        # block matrix taking (b, c, l, re/im) to (theta_d, b, c, d, re/im),
        # so the product comes out with the words as the last axis
        blocks = np.einsum("bB,cC,tdl,eE->bcletBCdE", eye, eye, md, eye)
        z = front @ blocks.reshape(16, -1)
        yield thetas, lo, z.view(complex).reshape(n, n, len(md), 8)


def _theta_d_blocks(resolution: int):
    """Yield ``(thetas, lo, p, q)`` over the quarter grid, one theta_b block at a time.

    ``p[i, j, k]`` = sum |z^2|^2 and ``q[i, j, k]`` = sum z^4 over the words
    0bcd at angles (0, thetas[lo + i], thetas[j], thetas[k]), from the five
    coefficients per (theta_b, theta_c) of the module docstring's closed form
    in theta_d.  Each block holds _CHUNK * (r/2)^2 values of p and of q.
    """
    thetas, _, front = _front(resolution)
    a = (front[..., 0] - 1j * front[..., 1]) / 2
    b = (front[..., 0] + 1j * front[..., 1]) / 2
    a2, b2 = a * a, b * b
    aa, bb = (a * a.conj()).real, (b * b.conj()).real
    # the sums over the bits b and c, at each (theta_b, theta_c)
    p0 = 2 * np.sum(aa * aa + bb * bb + 4 * aa * bb, axis=(2, 3))
    p4 = 2 * np.sum(a2 * b2.conj(), axis=(2, 3))
    q4 = 2 * np.sum(a2 * a2, axis=(2, 3))
    q0 = 12 * np.sum(a2 * b2, axis=(2, 3))
    qm4 = 2 * np.sum(b2 * b2, axis=(2, 3))
    # the blocks need only the coefficients: free the per-bit arrays
    del front, a, b, a2, b2, aa, bb
    e4 = np.exp(4j * thetas)
    for lo in range(0, len(thetas), _CHUNK):
        blk = np.s_[lo:lo + _CHUNK, :, None]
        p = p0[blk] + 2 * (p4[blk] * e4).real
        q = q4[blk] * e4 + q0[blk] + qm4[blk] * e4.conj()
        yield thetas, lo, p, q


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
    one block of theta_b at a time.  Each candidate with eigenvalue below
    1e-5 counts when, at its grid tuple and that omega, the summed squared
    support products sum_w (psi_w perp_w)^2 are at most 1e-20 and the
    disjoint-support test passes.  At
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
        Fold width: a representative within ``refine_tol`` below pi is
        reported as 0.  Kept while the benchmark's scan passes it (ROADMAP
        item 1, test_benchmark_calls_match_the_package).
    """
    found = []
    for thetas, lo, p, q in _theta_d_blocks(resolution):
        # the 16-word lam_min of the module docstring
        lam = p - np.abs(q)
        for i, j, k in np.argwhere(lam < 1e-5):
            # eigenvector (u0, u1) = (sin 2w, -cos 2w) for the small eigenvalue
            u0 = q[i, j, k].imag
            u1 = lam[i, j, k] - (p[i, j, k] + q[i, j, k].real)
            if u0 == 0.0 and u1 == 0.0:
                u0 = 1.0
            w = 0.5 * (math.atan2(u0, -u1) % math.pi)
            inst = DistinguishInstance(w, (0.0, thetas[lo + i], thetas[j], thetas[k]))
            psi, perp = component_table(inst).T
            if np.sum((psi * perp) ** 2) > 1e-20 or not is_distinguishing(inst):
                continue
            for rep in (w, (w + math.pi / 2) % math.pi):
                found.append(0.0 if math.pi - rep < refine_tol else rep)
    return sorted(found)


def grid_min_support_overlap(omega: float, resolution: int = 200) -> float:
    """Smallest support overlap achievable at fixed omega over the theta grid.

    A value far above SUPPORT_TOL certifies that no grid basis distinguishes
    the pair at this omega.  ``resolution`` is as for the scan.
    """
    # Re and -Im of e^{-i omega} z are the psi and psi_perp components
    rot = complex(math.cos(omega), -math.sin(omega))
    best = math.inf
    for _, _, z in _grid_chunks(resolution):
        u = rot * z
        overlap = np.minimum(np.abs(u.real), np.abs(u.imag)).max(axis=-1)
        best = min(best, float(overlap.min()))
    return best


def find_distinguishing_thetas(omega: float, resolution: int = 100):
    """A grid theta tuple making the pair at omega distinguishable, or None.

    Takes the grid tuple with the smallest summed squared support products
    and returns it if it passes the disjoint-support test.  The tuple is
    (0, theta_b, theta_c, theta_d) with the last three in [0, pi/2) (quarter
    grid, module docstring).  ``resolution`` is as for the scan.
    """
    rot4 = complex(math.cos(4 * omega), -math.sin(4 * omega))
    best = (math.inf, None)
    for thetas, lo, p, q in _theta_d_blocks(resolution):
        # 8 sum_w (psi_w perp_w)^2 over the words 0bcd (module docstring)
        obj = p - (rot4 * q).real
        i, j, k = np.unravel_index(np.argmin(obj), obj.shape)
        if obj[i, j, k] < best[0]:
            best = (float(obj[i, j, k]), (thetas[lo + i], thetas[j], thetas[k]))
    inst = DistinguishInstance(omega, (0.0, *best[1]))
    return inst.thetas if is_distinguishing(inst) else None
