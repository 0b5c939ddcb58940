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

Each state is scored on its support only, through ``qcore.collective_turn``:
no U^(x4) is formed and no turned density operator is built.  The support
keeps the eigenvalues at or above the cut of 1e-12 that ``state_fidelity``
chops to zero.

- A 4-qubit pure state turns its one column; its fidelity is
  |<psi|rotated>|^2.
- An 8-qubit pure state, as a 16 x 16 matrix M with Alice's index first,
  keeps the r eigenvectors L of M M^dagger past the cut (its Schmidt
  support; r = 2 for the two-wing state).  With R = M^dagger L it gives
  <psi|U^(x4) x V^(x4)|psi> = sum_ab X_ab Y_ba for X = L^dagger U^(x4) L and
  Y = R^dagger (V^T)^(x4) R, so each wing turns r columns, not 16.  This
  scores psi' = (L L^dagger x 1) psi, which differs from psi by a vector of
  squared norm e, the sum of the dropped eigenvalues (below 1.5e-11); the
  fidelity moves by at most 4 sqrt(e) + 2 e.  When psi has Schmidt rank r
  exactly, as the two-wing state does, e is rounding noise.
- A 4-qubit density operator rho keeps its eigenvectors V past the cut and
  D = diag(sqrt p) of their eigenvalues p.  With W = (U^dagger)^(x4) V the
  Uhlmann fidelity with U^(x4) rho U^(x4)^dagger is
  (sum sqrt(eig(D W^dagger rho W D)))^2: the nonzero eigenvalues of that
  r x r matrix are those of sqrt(rho) rho' sqrt(rho).  Every frame's W must
  stay orthonormal, W^dagger W = 1 within ``qcore.ATOL``, which is what
  makes the turned rho a density operator; otherwise ValueError.

``state_fidelity`` is the per-draw route the tests compare the chunks
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import dfs_states
from .qcore import (ATOL, DensityOperator, QuantumState, basis_state,
                    collective_turn, haar_su2_batch, partial_trace)

IMMUNITY_ATOL = 1e-9

# Draws per chunk.  The support kernels turn at most 16 columns (a random
# 8-qubit state; 1 or 2 for the report's states), so a chunk's arrays stay
# in the hundreds of kB.  On the 8 x 1000 draws of the immunity report, 256
# took a third of the time of 32 with no more traced memory; larger chunks
# saved at most 2 ms more, and 1024 took the traced peak from 1.4 to 2.5 MB.
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
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")
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


def _mixed_fidelities(rho: np.ndarray, vecs: np.ndarray, d: np.ndarray,
                      u: np.ndarray) -> np.ndarray:
    """Uhlmann fidelity of rho with U^(x4) rho U^(x4)^dagger for a chunk of
    (k, 2, 2) frames, on rho's support: ``vecs`` (16, r) and ``d`` (r,) are
    the eigenvectors of rho past the cut and the square roots of their
    eigenvalues."""
    w = collective_turn(u.conj().swapaxes(-1, -2), vecs)
    wc = w.conj()
    err = np.linalg.norm(np.einsum("iak,ibk->kab", wc, w) - np.eye(len(d)),
                         axis=(-2, -1))
    if not np.all(err <= ATOL):
        raise ValueError("turned support is not orthonormal within 1e-10")
    inner = np.einsum("iak,ibk->kab", wc, np.tensordot(rho, w, 1))
    ev = np.linalg.eigvalsh(d[:, None] * inner * d)
    return np.minimum(1.0, np.sum(np.sqrt(_chop(ev)), axis=-1) ** 2)


def _pure_fidelities(psi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """|<psi|rotated>|^2 of a 4-qubit state for a chunk of (k, 2, 2) frames."""
    overlaps = collective_turn(u, psi[:, None])[:, 0].T @ psi.conj()
    return np.minimum(1.0, np.abs(overlaps) ** 2)


def _schmidt_fidelities(left: np.ndarray, right: np.ndarray,
                        u: np.ndarray) -> np.ndarray:
    """|<psi|rotated>|^2 of an 8-qubit state M (16 x 16, Alice's index
    first) for a chunk of frames, on its Schmidt support: ``left`` (16, r)
    spans the support of M M^dagger and ``right`` is M^dagger left.  ``u``
    is (k, 2, 2) in the global scope and (k, 2, 2, 2) per wing, Alice's
    frame first."""
    alice, bob = (u, u) if u.ndim == 3 else (u[:, 0], u[:, 1])
    x = np.tensordot(left.conj(), collective_turn(alice, left), (0, 0))
    y = np.tensordot(right.conj(), collective_turn(bob.swapaxes(-1, -2), right),
                     (0, 0))
    overlaps = np.einsum("abk,bak->k", x, y)
    return np.minimum(1.0, np.abs(overlaps) ** 2)


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
        score = partial(_mixed_fidelities, state.matrix, vecs, np.sqrt(p))
    elif state.n_qubits == 8:
        m = state.amplitudes.reshape(16, 16)
        left, _ = _support(m @ m.conj().T)
        score = partial(_schmidt_fidelities, left, m.conj().T @ left)
    elif state.n_qubits == 4:
        if channel.scope == "per-wing":
            raise ValueError("the per-wing scope requires an 8-qubit state, "
                             f"got {state.n_qubits}")
        score = partial(_pure_fidelities, state.amplitudes)
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
