"""Four-qubit singlet-sector states and the rank-2 observables built on them.

The total-spin-zero subspace of four qubits is two dimensional.  We use the
orthonormal basis

    |phi0> = (|0101> - |0110> - |1001> + |1010>) / 2
    |phi1> = (2|0011> - |0101> - |0110> - |1001> - |1010> + 2|1100>) / (2 sqrt 3)

i.e. |phi0> is the product of singlets on pairs (1,2) and (3,4).  Every state
in this span is invariant under U x U x U x U for U in SU(2), which is what
makes all constructions here immune to collective rotations.

One integer table defines the sector: V0 = 2 phi0 and V1 = 2 sqrt3 phi1 are
integer vectors, the columns of V with norms V_NORMS, and so is
ETA_INT = 4 sqrt7 eta = V0 V0 + V0 V1 + V1 V0, whose coefficients over
V_i (x) V_j are ETA_TABLE.  Every float of the sector is one of them scaled
to unit norm: the (16, 2) basis SECTOR of columns phi0 and phi1, eta, and
eta's coefficients ETA_COEFFS over phi_i (x) phi_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import ATOL, QuantumState, apply_collective, axis_rows, permute_qubits

V0 = np.zeros(16, dtype=np.int64)
V0[[0b0101, 0b1010]] = 1
V0[[0b0110, 0b1001]] = -1
V1 = np.zeros(16, dtype=np.int64)
V1[[0b0011, 0b1100]] = 2
V1[[0b0101, 0b0110, 0b1001, 0b1010]] = -1
# eta over V_i (x) V_j: no V1 V1 term
ETA_TABLE = np.array([[1, 1], [1, 0]])

# the integer columns V = (V0, V1)
V = np.stack([V0, V1], axis=1)
ETA_INT = (V @ ETA_TABLE @ V.T).ravel()

# the norms (2, 2 sqrt3) of V0 and V1, and 4 sqrt7 = |ETA_INT|
V_NORMS = np.sqrt((V * V).sum(axis=0))
ETA_NORM = math.sqrt(ETA_INT @ ETA_INT)
_ETA_SCALE = 1.0 / ETA_NORM

SECTOR = V / V_NORMS
ETA_COEFFS = ETA_TABLE * np.outer(V_NORMS, V_NORMS) * _ETA_SCALE
for _table in (V0, V1, V, ETA_TABLE, ETA_INT, V_NORMS, SECTOR, ETA_COEFFS):
    _table.setflags(write=False)


class SubspaceError(ValueError):
    """Input state does not lie in the singlet-sector span; carries the residual."""

    def __init__(self, residual_norm: float):
        super().__init__(
            f"state lies outside span{{phi0, phi1}}: residual norm {residual_norm:.3e}"
        )
        self.residual_norm = residual_norm


def singlet() -> QuantumState:
    """Two-qubit singlet (|01> - |10>) / sqrt 2."""
    return QuantumState(np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0))


def make_phi0() -> QuantumState:
    """Singlet-pair basis state: singlet(1,2) x singlet(3,4)."""
    return QuantumState(SECTOR[:, 0])


def make_phi1() -> QuantumState:
    """The state completing the spin-zero basis, orthogonal to |phi0>."""
    return QuantumState(SECTOR[:, 1])


def make_psi0() -> QuantumState:
    """|phi0> with qubits 2 and 3 exchanged; equals (|phi0> + sqrt3 |phi1>)/2."""
    return permute_qubits(make_phi0(), (1, 3, 2, 4))


def make_psi1() -> QuantumState:
    """|phi1> with qubits 2 and 3 exchanged; equals (sqrt3 |phi0> - |phi1>)/2."""
    return permute_qubits(make_phi1(), (1, 3, 2, 4))


def make_eta() -> QuantumState:
    """Eight-qubit two-wing resource state (|phi0 phi0> + sqrt3 |phi0 phi1> + sqrt3 |phi1 phi0>)/sqrt 7.

    The |phi1 phi1> component is absent by construction; that single missing
    term is what forbids the (+1, +1) outcome when both wings measure F.
    """
    return QuantumState(ETA_INT * _ETA_SCALE)


@dataclass(frozen=True)
class DfsVector:
    """A singlet-sector state given by its two coefficients in the (phi0, phi1) basis."""

    c0: complex
    c1: complex

    def __post_init__(self):
        nrm = math.hypot(abs(self.c0), abs(self.c1))
        if not abs(nrm - 1.0) <= ATOL:
            raise ValueError(f"coefficient norm {nrm} deviates from 1")


def dfs_embed(v: DfsVector) -> QuantumState:
    """c0 |phi0> + c1 |phi1> as a 16-dimensional vector."""
    return QuantumState(SECTOR @ np.array([v.c0, v.c1]))


def dfs_project(s: QuantumState) -> DfsVector:
    """Coefficients of a 4-qubit state in the (phi0, phi1) basis.

    Raises SubspaceError when the component outside the span has norm
    >= 1e-8; the threshold is looser than the analytic tolerance so that
    states surviving repeated rotations still project cleanly.
    """
    if s.n_qubits != 4:
        raise ValueError("dfs_project expects a 4-qubit state")
    c = SECTOR.T @ s.amplitudes
    residual_norm = float(np.linalg.norm(s.amplitudes - SECTOR @ c))
    if residual_norm >= 1e-8:
        raise SubspaceError(residual_norm)
    return DfsVector(complex(c[0]), complex(c[1]))


@dataclass(frozen=True)
class Observable:
    """Two-outcome observable: eigenvalue -1 on ``minus``, +1 on ``plus``.

    The orthogonal complement of the two eigenvectors is the explicit "null"
    outcome, kept so that "null never occurs" is a testable statement rather
    than an assumption.
    """

    minus: QuantumState
    plus: QuantumState

    def __post_init__(self):
        if not abs(self.minus.overlap(self.plus)) <= ATOL:
            raise ValueError("eigenvectors are not orthogonal")

    def rotated(self, u: np.ndarray) -> "Observable":
        """Same spectrum, eigenvectors conjugated by the collective rotation
        U^(x4) of the (2, 2) frame ``u``."""
        return Observable(apply_collective(self.minus, u, "all"),
                          apply_collective(self.plus, u, "all"))

    def to_matrix(self) -> np.ndarray:
        m, p = self.minus.amplitudes, self.plus.amplitudes
        return np.outer(p, p.conj()) - np.outer(m, m.conj())


def make_f() -> Observable:
    """Observable distinguishing the (1,2)(3,4) singlet pairing: -1 on phi0, +1 on phi1."""
    return Observable(make_phi0(), make_phi1())


def make_g() -> Observable:
    """Observable distinguishing the (1,3)(2,4) pairing: -1 on psi0, +1 on psi1."""
    return Observable(make_psi0(), make_psi1())


def dfs_observable(alpha: float) -> Observable:
    """Rank-2 observable whose -1 eigenvector is cos(a)|phi0> + sin(a)|phi1>.

    Its eigenvectors are the rows of ``axis_rows(alpha)`` over (phi0, phi1).
    alpha = 0 reproduces F up to an eigenvector sign; alpha = pi/3 reproduces
    G exactly, since |psi0> = cos(pi/3)|phi0> + sin(pi/3)|phi1>.
    """
    return Observable(*(dfs_embed(DfsVector(*row)) for row in axis_rows(alpha)))
