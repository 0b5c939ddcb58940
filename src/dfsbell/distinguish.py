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

Closed-form omega.  Writing z^2 = (A^2 - B^2) + i 2AB, the 2x2 moment
matrix of the vectors (A^2 - B^2, 2AB) over the 16 words has, with
p = sum |z^2|^2 and q = sum z^4 over the 8 words 0bcd,

    lam_min = p - |q|,   sxx = p + Re q,   sxy = Im q,

and its small eigenvector gives the only omega that can split the pair at
that theta tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .dfs_states import make_phi0, make_phi1
from .localmeas import _axis_rows

SUPPORT_TOL = 1e-8

_DEGENERATE_TOL = 1e-12

# theta_d values per grid block.  Small blocks run fastest and keep each
# block array at r^2 * 24 complex values; 3 divides neither 100 nor 200, so
# the usual resolutions also exercise the ragged last block.
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


def _product_components(state4: np.ndarray, thetas) -> np.ndarray:
    """Components of a 4-qubit vector in the product basis with the given angles."""
    t = state4.reshape(2, 2, 2, 2)
    ms = [_axis_rows(th) for th in thetas]
    return np.einsum("ai,bj,ck,dl,ijkl->abcd", *ms, t).reshape(16)


def pair_states(omega: float):
    """Amplitude vectors of |psi> and its orthogonal complement |psi_perp>."""
    phi0 = make_phi0().amplitudes.real
    phi1 = make_phi1().amplitudes.real
    c, s = math.cos(omega), math.sin(omega)
    return c * phi0 + s * phi1, s * phi0 - c * phi1


def component_table(inst: DistinguishInstance) -> np.ndarray:
    """(16, 2) array: column 0 components of |psi>, column 1 of |psi_perp>."""
    psi, perp = pair_states(inst.omega)
    return np.stack([
        _product_components(psi, inst.thetas),
        _product_components(perp, inst.thetas),
    ], axis=1)


def support_overlap(inst: DistinguishInstance) -> float:
    """max over basis words of min(|psi component|, |perp component|).

    Zero (below SUPPORT_TOL) means disjoint supports: every word identifies
    at most one of the two states.
    """
    table = np.abs(component_table(inst))
    return float(np.min(table, axis=1).max())


def is_distinguishing(inst: DistinguishInstance, tol: float = SUPPORT_TOL) -> bool:
    """True iff no basis word carries both states above the support tolerance."""
    return support_overlap(inst) <= tol


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


def _phi() -> np.ndarray:
    """The complex packing phi0 + i phi1 of the two sector basis states."""
    return make_phi0().amplitudes.real + 1j * make_phi1().amplitudes.real


def _grid_chunks(resolution: int):
    """Yield ``(thetas, lo, z)`` over the theta grid, one theta_d block at a time.

    ``z[i, j, k, w]`` is the product component of phi0 + i phi1 for the word
    0bcd (w = 4b + 2c + d) at angles (0, thetas[i], thetas[j], thetas[lo + k]);
    the 1bcd words follow by the bit-flip sign (see module docstring).
    """
    r = resolution
    thetas = np.arange(r) * (math.pi / r)
    rows = np.stack([_axis_rows(t) for t in thetas])
    phi = _phi()
    # qubit a at theta 0 keeps the i = 0 half; contract qubits b and c once
    front = np.einsum("rbj,sck,jkl->rsbcl", rows, rows, phi.reshape(2, 2, 2, 2)[0])
    # real columns (b, c, l, re/im) of the complex front
    front = front.reshape(r * r, 8).view(float)
    eye = np.eye(2)
    for lo in range(0, r, _CHUNK):
        md = rows[lo:lo + _CHUNK]
        # block matrix taking (b, c, l, re/im) to (theta_d, b, c, d, re/im),
        # so the product comes out with the words as the last axis
        blocks = np.einsum("bB,cC,tdl,eE->bcletBCdE", eye, eye, md, eye)
        z = front @ blocks.reshape(16, -1)
        yield thetas, lo, z.view(complex).reshape(r, r, len(md), 8)


def _support_products(omega: float, thetas, phi: np.ndarray) -> float:
    """Summed squared support products sum_w (psi_w perp_w)^2; zero iff disjoint."""
    u = complex(math.cos(omega), -math.sin(omega)) * _product_components(phi, thetas)
    return float(np.sum((u.real * u.imag) ** 2))


def _refine(omega0, thetas0):
    """Polish a candidate by minimizing the summed squared support products."""
    phi = _phi()
    res = minimize(lambda p: _support_products(p[0], (0.0, *p[1:]), phi),
                   [omega0, *thetas0], method="Nelder-Mead",
                   options=dict(xatol=1e-12, fatol=1e-26, maxiter=5000))
    return res.x, res.fun


def scan_distinguishable_omegas(resolution: int = 200, refine_tol: float = 1e-3,
                                omega_range=None) -> list:
    """All omega (mod pi) admitting a distinguishing product basis.

    Grid search over (theta_b, theta_c, theta_d) with theta_a = 0 (exact
    reduction, see module docstring), ``resolution`` points per angle on
    [0, pi).  For each tuple the best omega is closed-form: a word splits the
    pair iff sin(2w) (A^2 - B^2) = cos(2w) 2AB where (A, B) are the word's
    components of (phi0, phi1), so all words must agree on 2w mod pi; the
    smallest eigenvalue of the 2x2 moment matrix of the vectors
    (A^2 - B^2, 2AB) measures the disagreement and its eigenvector gives the
    candidate omega.  Survivors are polished by local minimization, validated
    against the disjoint-support test, and clustered within refine_tol.

    Since a pair and its omega + pi/2 partner are the same two states with
    roles swapped, every validated omega contributes both representatives.

    Parameters
    ----------
    resolution : int
        Grid points per angle; at least 100.
    refine_tol : float
        Cluster width for merging validated omega values.
    omega_range : (lo, hi) or None
        If given, keep only omegas inside the closed interval.
    """
    if resolution < 100:
        raise ValueError("resolution must be at least 100 points per angle")
    bins = {}
    for thetas, lo, z in _grid_chunks(resolution):
        z2 = z * z
        sq = z2.view(float).reshape(*z.shape[:3], 16)
        # p = sum |z^2|^2 and q = sum z^4 over the words 0bcd; lam is the
        # 16-word lam_min of the module docstring
        p = np.einsum("...j,...j->...", sq, sq)
        q = np.einsum("...j,...j->...", z2, z2)
        lam = p - np.abs(q)
        # eigenvector (u0, u1) = (sin 2w, -cos 2w) for the small eigenvalue
        cand = np.argwhere(lam < 1e-5)
        for i, j, k in cand:
            sxx = p[i, j, k] + q[i, j, k].real
            u0, u1 = q[i, j, k].imag, lam[i, j, k] - sxx
            if u0 == 0.0 and u1 == 0.0:
                u0 = 1.0
            w = 0.5 * (math.atan2(u0, -u1) % math.pi)
            key = round(w / 0.02)
            val = (lam[i, j, k], w, thetas[i], thetas[j], thetas[lo + k])
            if key not in bins or val[0] < bins[key][0]:
                bins[key] = val
    validated = []
    for _, (_, w0, tb, tc, td) in sorted(bins.items()):
        p, fun = _refine(w0, (tb, tc, td))
        if fun > 1e-20:
            continue
        inst = DistinguishInstance(p[0], (0.0, p[1], p[2], p[3]))
        if is_distinguishing(inst):
            for rep in (p[0], p[0] + math.pi / 2):
                rep %= math.pi
                if math.pi - rep < refine_tol:
                    rep = 0.0
                validated.append(rep)
    validated.sort()
    merged = []
    for w in validated:
        if merged and w - merged[-1][-1] < refine_tol:
            merged[-1].append(w)
        else:
            merged.append([w])
    omegas = [float(np.mean(c)) for c in merged]
    if omega_range is not None:
        lo, hi = omega_range
        omegas = [w for w in omegas if lo <= w <= hi]
    return omegas


def grid_min_support_overlap(omega: float, resolution: int = 200) -> float:
    """Smallest support overlap achievable at fixed omega over the theta grid.

    A value far above SUPPORT_TOL certifies that no grid basis distinguishes
    the pair at this omega.
    """
    if resolution < 100:
        raise ValueError("resolution must be at least 100 points per angle")
    # Re and -Im of e^{-i omega} z are the psi and psi_perp components
    rot = complex(math.cos(omega), -math.sin(omega))
    best = math.inf
    for _, _, z in _grid_chunks(resolution):
        u = rot * z
        overlap = np.minimum(np.abs(u.real), np.abs(u.imag)).max(axis=-1)
        best = min(best, float(overlap.min()))
    return best


def find_distinguishing_thetas(omega: float, resolution: int = 100):
    """A theta tuple making the pair at omega distinguishable, or None.

    Seeds a local polish (omega held fixed) from the best grid tuple.
    """
    if resolution < 100:
        raise ValueError("resolution must be at least 100 points per angle")
    rot = complex(math.cos(omega), -math.sin(omega))
    best = (math.inf, None)
    for thetas, lo, z in _grid_chunks(resolution):
        u = rot * z
        prod = u.real * u.imag
        obj = np.einsum("...j,...j->...", prod, prod)
        i, j, k = np.unravel_index(np.argmin(obj), obj.shape)
        if obj[i, j, k] < best[0]:
            best = (float(obj[i, j, k]), (thetas[i], thetas[j], thetas[lo + k]))
    phi = _phi()
    res = minimize(lambda p: _support_products(omega, (0.0, *p), phi),
                   list(best[1]), method="Nelder-Mead",
                   options=dict(xatol=1e-12, fatol=1e-26, maxiter=5000))
    inst = DistinguishInstance(omega, (0.0, *res.x))
    if is_distinguishing(inst):
        return inst.thetas
    return None
