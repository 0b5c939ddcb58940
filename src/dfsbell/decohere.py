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
Bob's, as k single draws would give them.  A pure state is scored by
``qcore.collective_turn``, with no U^(x4) formed: a 4-qubit state turns its
one column, and an 8-qubit state, as a 16 x 16 matrix M with Alice's index
first, gives <psi|U^(x4) x V^(x4)|psi> = sum_ac X_ac Y_ca for
X = U^(x4) M and Y = (V^T)^(x4) M^dagger.  Its fidelity is |<psi|rotated>|^2.
A density operator turns by the full U^(x n) from ``qcore.kron`` and is
checked; the Uhlmann fidelities of a chunk come from one batched eigvalsh,
with the square root of rho computed once per call.  ``state_fidelity`` is
the per-draw route the tests compare the chunks against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import dfs_states
from .qcore import (DensityOperator, QuantumState, basis_state, check_density,
                    collective_turn, haar_su2_batch, kron, partial_trace)

IMMUNITY_ATOL = 1e-9

# Draws per chunk, sized for density operators of at most 4 qubits, where a
# chunk's stacked arrays stay near 100 kB; larger chunks saved no time and
# raised the peak memory.  An 8-qubit density operator costs about 34 MB per
# stacked (CHUNK, 256, 256) array.  Pure states take the same chunks;
# larger ones saved them at most 0.02 s over 4,000 draws.
CHUNK = 32

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
    return np.where(w < 1e-12, 0.0, w)


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


def _mixed_fidelities(rho: DensityOperator, root: np.ndarray,
                      u: np.ndarray) -> np.ndarray:
    """Uhlmann fidelity of rho with U^(x n) rho U^(x n)^dagger for a chunk
    of (k, 2, 2) frames; ``root`` is the chopped square root of rho."""
    big = kron([u] * rho.n_qubits)
    out = big @ rho.matrix @ big.conj().swapaxes(-1, -2)
    check_density(out)
    ev = np.linalg.eigvalsh(root @ out @ root)
    return np.minimum(1.0, np.sum(np.sqrt(_chop(ev)), axis=-1) ** 2)


def _pure_fidelities(psi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """|<psi|rotated>|^2 for a chunk of frames: ``u`` is (k, 2, 2) in the
    global scope and (k, 2, 2, 2) per wing, Alice's frame first."""
    if psi.size == 16:
        overlaps = collective_turn(u, psi[:, None])[..., 0] @ psi.conj()
    else:
        m = psi.reshape(16, 16)
        alice, bob = (u, u) if u.ndim == 3 else (u[:, 0], u[:, 1])
        x = collective_turn(alice, m)
        y = collective_turn(bob.swapaxes(-1, -2), m.conj().T)
        overlaps = np.einsum("kac,kca->k", x, y)
    return np.minimum(1.0, np.abs(overlaps) ** 2)


def fidelity_samples(state, channel: CollectiveChannel, seed=0) -> np.ndarray:
    """Per-draw fidelity between a state (pure or mixed) and its rotated copy.

    Draw i of the result uses the frames of draw i of the stream, in the
    order of the module docstring.  A pure state must have 4 or 8 qubits,
    and the per-wing scope takes only a pure 8-qubit state; other inputs
    raise ValueError before any draw.
    """
    if isinstance(state, DensityOperator):
        if channel.scope != "global":
            raise ValueError("density operators support only the global scope")
        score = partial(_mixed_fidelities, state, _sqrt_psd(state.matrix))
    else:
        if state.n_qubits not in (4, 8):
            raise ValueError(
                f"pure states of 4 or 8 qubits only, got {state.n_qubits}")
        if channel.scope == "per-wing" and state.n_qubits != 8:
            raise ValueError("the per-wing scope requires an 8-qubit state, "
                             f"got {state.n_qubits}")
        score = partial(_pure_fidelities, state.amplitudes)
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
