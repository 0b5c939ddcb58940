"""Collective rotation noise and which states survive it.

The noise applies one random SU(2) frame to every qubit in scope: one draw
for the whole register ("global"), or independent draws for the two wings
("per-wing").  Singlet-sector states are invariant under either, so their
fidelity is 1 for every draw; reference states outside the sector lose most
of theirs.  ``fidelity_samples`` scores each state on its support, through
r x r tables S^dagger U^(x4) S and no U^(x4)
(test_every_turned_table_has_r_squared_rows): a pure state by an overlap
(test_pure_chunks_match_the_per_draw_route), a density operator by Uhlmann's
fidelity (test_density_chunks_match_the_per_draw_route).  ``state_fidelity``
is the per-draw route those tests compare against.
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
# stack of monomials and a turned table per wing.  At 1,024 the default
# 1,000 draws take one chunk per state, so each kernel's numpy calls run
# once per state, where per-call cost dominates; a larger count still
# works chunk by chunk, with memory bounded by the chunk.
CHUNK = 1024

# Eigenvalues below this are exact zeros: of a density operator, and of
# M M^dagger, the squared Schmidt coefficients of an 8-qubit state.
_CUT = 1e-12

_SCOPES = ("global", "per-wing")


@dataclass(frozen=True)
class CollectiveChannel:
    """``n_samples`` (an integer of at least 1) Haar collective rotations of
    ``scope`` "global" or "per-wing"; ValueError otherwise."""

    n_samples: int = 1000
    scope: str = "global"

    def __post_init__(self):
        check_count("n_samples", self.n_samples)
        if self.scope not in _SCOPES:
            raise ValueError(f"scope must be one of {_SCOPES}")


def _chop(w):
    return np.where(w < _CUT, 0.0, w)


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(m)
    return (u * np.sqrt(_chop(w))) @ u.conj().T


def state_fidelity(a, b) -> float:
    """Fidelity between states or density operators (squared-overlap form),
    clamped to 1.  Between two density operators eigenvalues below 1e-12 are
    exact zeros, whose noise the square root would amplify past the immunity
    tolerance."""
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
    ``turn_table`` of X = V^dagger U^(x4) V, and ``d`` (r,) the square roots
    of the kept eigenvalues (test_density_chunks_match_the_per_draw_route)."""
    x = collective_turn(table, check_unitary(u)).T.reshape(-1, len(d), len(d))
    dxd = d[:, None] * x * d
    ev = np.linalg.eigvalsh(dxd @ dxd.conj().swapaxes(-1, -2))
    return np.minimum(1.0, np.sum(np.sqrt(_chop(ev)), axis=-1) ** 2)


def _pure_fidelities(tables: tuple, u: np.ndarray) -> np.ndarray:
    """|<psi|rotated>|^2 of a pure state for a chunk of frames, on its
    Schmidt support, from the ``turn_table``s of one or both wings
    (test_pure_chunks_match_the_per_draw_route).  ``u`` is (k, 2, 2) in the
    global scope and (k, 2, 2, 2) per wing, Alice's frame first."""
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
    """Per-draw fidelity between a state and its rotated copy, draw i from
    the frames of draw i of the seeded stream, Alice's before Bob's.  It takes
    a pure state of 4 or 8 qubits or a density operator of 4, per wing only a
    pure 8-qubit state; other inputs raise ValueError before any draw."""
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
    """The smallest fidelity of one state; ``worst_draw`` indexes it."""

    name: str
    scope: str
    min_fidelity: float
    worst_draw: int


@dataclass(frozen=True)
class ImmunityReport:
    entries: tuple


def _ghz4() -> QuantumState:
    amps = np.zeros(16, dtype=complex)
    amps[0b0000] = amps[0b1111] = 1.0 / np.sqrt(2.0)
    return QuantumState(amps)


def immunity_report(n_samples: int = 1000, seed=0) -> ImmunityReport:
    """The smallest fidelity over ``n_samples`` draws, on substream
    ``(seed, i)`` for entry i, of the sector states, the reduced density
    (global channel) and the two-wing state (per wing), and of two
    references, a basis word and a GHZ state, whose mean fidelity is 1/5
    (test_reference_states_lose_fidelity).  Verdicts are the caller's: the
    command line calls a sector state immune when its smallest fidelity is
    within IMMUNITY_ATOL of 1."""
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
            name=name, scope=scope, min_fidelity=float(fids.min()),
            worst_draw=int(fids.argmin())))
    return ImmunityReport(entries=tuple(entries))
