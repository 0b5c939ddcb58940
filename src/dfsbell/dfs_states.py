"""Four-qubit singlet-sector states and the rank-2 observables built on them.

The total-spin-zero subspace of four qubits has the orthonormal basis

    |phi0> = (|0101> - |0110> - |1001> + |1010>) / 2
    |phi1> = (2|0011> - |0101> - |0110> - |1001> - |1010> + 2|1100>) / (2 sqrt 3)

|phi0> being the product of singlets on pairs (1,2) and (3,4).  Every state
in this span is invariant under U x U x U x U for U in SU(2).  The integer
vectors V0 = 2 phi0 and V1 = 2 sqrt3 phi1 (the columns of V) and ETA_INT =
4 sqrt7 eta = V0 V0 + V0 V1 + V1 V0 define the sector; SECTOR, eta and
ETA_COEFFS are these scaled to unit norm (test_the_integer_table_is_the_sector).
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
    """Eight-qubit two-wing state (|phi0 phi0> + sqrt3 |phi0 phi1> + sqrt3
    |phi1 phi0>)/sqrt 7; its missing |phi1 phi1> term forbids (+1, +1) when
    both wings measure F."""
    return QuantumState(ETA_INT * _ETA_SCALE)


@dataclass(frozen=True)
class Observable:
    """Two-outcome observable: eigenvalue -1 on ``minus``, +1 on ``plus``,
    orthogonal within ATOL.  Their complement is the explicit "null" outcome,
    so that "null never occurs" is tested rather than assumed."""

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


def make_f() -> Observable:
    """Observable distinguishing the (1,2)(3,4) singlet pairing: -1 on phi0, +1 on phi1."""
    return Observable(make_phi0(), make_phi1())


def make_g() -> Observable:
    """Observable distinguishing the (1,3)(2,4) pairing: -1 on psi0, +1 on psi1."""
    return Observable(make_psi0(), make_psi1())


def dfs_observable(alpha: float) -> Observable:
    """Rank-2 observable whose eigenvectors are the rows of
    ``axis_rows(alpha)`` over (phi0, phi1): F up to a sign at 0, and G at
    pi/3, since |psi0> = cos(pi/3)|phi0> + sin(pi/3)|phi1>."""
    return Observable(*(QuantumState(SECTOR @ row) for row in axis_rows(alpha)))
