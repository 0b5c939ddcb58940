"""Collective rotation noise and which states survive it.

The noise model applies the same random SU(2) element to every qubit in
scope: either one draw for the whole register, or independent draws for the
two wings.  Singlet-sector states are exactly invariant under either scope,
so their fidelity with the noisy state is 1 for every draw, not just on
average.  Reference states outside the sector (a computational basis word, a
GHZ state) lose most of their fidelity, which calibrates the comparison.

Every draw takes its frames from the seeded stream in chunks of CHUNK
draws, one ``qcore.haar_su2_batch`` call per chunk: shape (k,) in the global
scope, (k, 2) per wing, so that draw by draw Alice's frame comes before
Bob's, as k single draws would give them.

Each state is scored on its support only: r orthonormal columns S, cut
where an eigenvalue falls below the 1e-12 that ``state_fidelity`` chops to
zero.  It takes the (r^2, 35) ``qcore.turn_table`` of S^dagger and S per
wing, whose ``qcore.collective_turn`` is the r x r table S^dagger U^(x4) S,
and each chunk makes one turn per wing, with no U^(x4) formed and no turned
state or density operator built.

- A pure state, as a 16 x 16 matrix M with Alice's index first when it has
  8 qubits, keeps the r eigenvectors L of M M^dagger past the cut (its
  Schmidt support; r = 2 for the two-wing state).  With R = M^dagger L it
  gives <psi|U_a^(x4) x U_b^(x4)|psi> = sum_ij X_ij Y_ij for the tables
  X = L^dagger U_a^(x4) L and Y = R^T U_b^(x4) conj(R), not 16 x 16.  This
  scores psi' = (L L^dagger x 1) psi, which differs from psi by a vector of
  squared norm e, the sum of the dropped eigenvalues (below 1.5e-11); the
  fidelity moves by at most 4 sqrt(e) + 2 e.  When psi has Schmidt rank r
  exactly, as the two-wing state does, e is rounding noise.  A 4-qubit
  state is the one-wing case L = psi, whose 1 x 1 table is the overlap
  <psi|rotated>.  Either way the fidelity is the overlap's squared modulus.
- A 4-qubit density operator rho = V D^2 V^dagger keeps its eigenvectors V
  past the cut and D = diag(sqrt p) of their eigenvalues p.  With
  sqrt(rho) = V D V^dagger, the Uhlmann fidelity with
  sigma = U^(x4) rho U^(x4)^dagger is ||sqrt(rho) U^(x4) sqrt(rho)||_1^2, the
  squared sum of the singular values of D X D for X = V^dagger U^(x4) V: the
  square roots of the eigenvalues of (D X D)(D X D)^dagger, which are the
  nonzero eigenvalues of sqrt(rho) sigma sqrt(rho), one batched eigensolve
  per chunk.  The identity needs U unitary, and the final clamp to 1 would
  hide a frame that is not, so every chunk's frames pass
  ``qcore.check_unitary`` first.

``state_fidelity`` is the per-draw route the tests compare the chunks
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import dfs_states
from .qcore import (DensityOperator, QuantumState, basis_state, check_count,
                    check_unitary, collective_turn, haar_su2_batch, partial_trace,
                    turn_table)

IMMUNITY_ATOL = 1e-9

# Draws per chunk: the unit of the kernels' work arrays, a (35, CHUNK)
# stack of monomials and a turned table per wing.
CHUNK = 256

# Eigenvalues below this are exact zeros: of a density operator, and of
# M M^dagger, the squared Schmidt coefficients of an 8-qubit state.
_CUT = 1e-12

_SCOPES = ("global", "per-wing")


@dataclass(frozen=True)
class CollectiveChannel:
    """Random collective rotations, averaged over ``n_samples`` Haar draws.

    scope "global" rotates every qubit by one common element; "per-wing"
    draws independently for the first and second half of the register.
    """

    n_samples: int = 1000
    scope: str = "global"

    def __post_init__(self):
        check_count("n_samples", self.n_samples, "must be positive")
        if self.scope not in _SCOPES:
            raise ValueError(f"scope must be one of {_SCOPES}")


def _chop(w):
    return np.where(w < _CUT, 0.0, w)


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(m)
    return (u * np.sqrt(_chop(w))) @ u.conj().T


def state_fidelity(a, b) -> float:
    """Fidelity between states or density operators (squared-overlap form).

    Eigenvalues below 1e-12 are treated as exact zeros in the mixed-mixed
    branch; the square root otherwise amplifies their noise past the
    immunity tolerance.  This is the per-draw route: the tests rebuild each
    draw of ``fidelity_samples`` from single frames and compare through it.
    """
    if isinstance(a, QuantumState) and isinstance(b, QuantumState):
        return min(1.0, float(abs(a.overlap(b)) ** 2))
    if isinstance(a, QuantumState):
        v = a.amplitudes
        return min(1.0, float(np.real(v.conj() @ b.matrix @ v)))
    if isinstance(b, QuantumState):
        return state_fidelity(b, a)
    # Uhlmann: (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2
    root = _sqrt_psd(a.matrix)
    ev = np.linalg.eigvalsh(root @ b.matrix @ root)
    return min(1.0, float(np.sum(np.sqrt(_chop(ev))) ** 2))


def _mixed_fidelities(table: np.ndarray, d: np.ndarray,
                      u: np.ndarray) -> np.ndarray:
    """Uhlmann fidelity of rho with U^(x4) rho U^(x4)^dagger for a chunk of
    (k, 2, 2) frames, on rho's support: ``table`` is the (r r, 35)
    ``turn_table`` of X in the module docstring, and ``d`` (r,) the square
    roots of the kept eigenvalues."""
    x = collective_turn(table, check_unitary(u)).T.reshape(-1, len(d), len(d))
    dxd = d[:, None] * x * d
    ev = np.linalg.eigvalsh(dxd @ dxd.conj().swapaxes(-1, -2))
    return np.minimum(1.0, np.sum(np.sqrt(_chop(ev)), axis=-1) ** 2)


def _pure_fidelities(tables: tuple, u: np.ndarray) -> np.ndarray:
    """|<psi|rotated>|^2 of a pure state for a chunk of frames, on its
    Schmidt support: ``tables`` holds the (r r, 35) ``turn_table``s of X, or
    of X and Y, in the module docstring.  ``u`` is (k, 2, 2) in the global
    scope and (k, 2, 2, 2) per wing, Alice's frame first."""
    wings = (u, u) if u.ndim == 3 else (u[:, 0], u[:, 1])
    overlaps = np.prod([collective_turn(t, w) for t, w in zip(tables, wings)],
                       axis=0).sum(axis=0)
    return np.minimum(1.0, overlaps.real ** 2 + overlaps.imag ** 2)


def _support(h: np.ndarray):
    """Eigenvectors (16, r) of the Hermitian ``h`` whose eigenvalues pass
    the cut, and those eigenvalues."""
    p, v = np.linalg.eigh(h)
    keep = p >= _CUT
    return v[:, keep], p[keep]


def fidelity_samples(state, channel: CollectiveChannel, seed=0) -> np.ndarray:
    """Per-draw fidelity between a state (pure or mixed) and its rotated copy.

    Draw i of the result uses the frames of draw i of the stream, in the
    order of the module docstring.  A pure state must have 4 or 8 qubits,
    a density operator 4, and the per-wing scope takes only a pure 8-qubit
    state; other inputs raise ValueError before any draw.
    """
    if isinstance(state, DensityOperator):
        if channel.scope != "global":
            raise ValueError("density operators support only the global scope")
        if state.n_qubits != 4:
            raise ValueError(
                f"density operators of 4 qubits only, got {state.n_qubits}")
        vecs, p = _support(state.matrix)
        score = partial(_mixed_fidelities, turn_table(vecs.conj().T, vecs), np.sqrt(p))
    elif state.n_qubits == 8:
        m = state.amplitudes.reshape(16, 16)
        left, _ = _support(m @ m.conj().T)
        right = m.conj().T @ left
        score = partial(_pure_fidelities, (turn_table(left.conj().T, left),
                                           turn_table(right.T, right.conj())))
    elif state.n_qubits == 4:
        if channel.scope == "per-wing":
            raise ValueError("the per-wing scope requires an 8-qubit state, "
                             f"got {state.n_qubits}")
        psi = state.amplitudes
        score = partial(_pure_fidelities, (turn_table(psi.conj()[None], psi[:, None]),))
    else:
        raise ValueError(
            f"pure states of 4 or 8 qubits only, got {state.n_qubits}")
    frames = (2,) if channel.scope == "per-wing" else ()
    rng = np.random.default_rng(seed)
    out = np.empty(channel.n_samples)
    for start in range(0, channel.n_samples, CHUNK):
        k = min(CHUNK, channel.n_samples - start)
        out[start:start + k] = score(haar_su2_batch(rng, (k, *frames)))
    return out


@dataclass(frozen=True)
class StateImmunity:
    """Fidelity statistics of one state; ``worst_draw`` indexes its smallest fidelity."""

    name: str
    scope: str
    n_samples: int
    min_fidelity: float
    mean_fidelity: float
    immune: bool
    worst_draw: int


@dataclass(frozen=True)
class ImmunityReport:
    entries: tuple


def _ghz4() -> QuantumState:
    amps = np.zeros(16, dtype=complex)
    amps[0b0000] = amps[0b1111] = 1.0 / np.sqrt(2.0)
    return QuantumState(amps)


def immunity_report(n_samples: int = 1000, seed=0) -> ImmunityReport:
    """Fidelity statistics for the protected states and two references.

    The four sector basis states face the global channel; the two-wing state
    faces independent per-wing rotations, the stricter scope it must survive.
    A state counts as immune when the smallest sampled fidelity stays within
    IMMUNITY_ATOL of 1.  The references (a basis word and a GHZ state, mean
    fidelity 1/5 each under the global channel) show what failure looks like.
    """
    cases = [
        ("sector phi0", dfs_states.make_phi0(), "global"),
        ("sector phi1", dfs_states.make_phi1(), "global"),
        ("sector psi0", dfs_states.make_psi0(), "global"),
        ("sector psi1", dfs_states.make_psi1(), "global"),
        ("sector reduced density",
         partial_trace(dfs_states.make_eta(), keep=(1, 2, 3, 4)), "global"),
        ("sector two-wing eta", dfs_states.make_eta(), "per-wing"),
        ("reference basis word 0101", basis_state((0, 1, 0, 1)), "global"),
        ("reference GHZ", _ghz4(), "global"),
    ]
    entries = []
    for i, (name, state, scope) in enumerate(cases):
        channel = CollectiveChannel(n_samples=n_samples, scope=scope)
        fids = fidelity_samples(state, channel,
                                seed=np.random.SeedSequence((seed, i)))
        entries.append(StateImmunity(
            name=name, scope=scope, n_samples=n_samples,
            min_fidelity=float(fids.min()), mean_fidelity=float(fids.mean()),
            immune=bool(fids.min() > 1.0 - IMMUNITY_ATOL),
            worst_draw=int(fids.argmin())))
    return ImmunityReport(entries=tuple(entries))
