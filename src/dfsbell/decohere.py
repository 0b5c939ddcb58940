"""Collective rotation noise and which states survive it.

The noise applies one random SU(2) frame to every qubit in scope: one draw
for the whole register ("global"), or independent draws for the two wings
("per-wing").  Singlet-sector states are invariant under either, so their
fidelity is 1 for every draw; reference states outside the sector lose most
of theirs.  Each state is scored on its support, through r x r tables
S^dagger U^(x4) S and no U^(x4)
(test_every_turned_table_has_r_squared_rows): a pure state by an overlap
(test_pure_chunks_match_the_per_draw_route), a density operator by Uhlmann's
fidelity (test_density_chunks_match_the_per_draw_route).  ``state_fidelity``
is the per-draw route those tests compare against.

The states of one scope share its draws: each chunk's frames are drawn
and checked once, and every state's small tables of one wing are one
``qcore.collective_turn`` by that wing's frames, which builds one stack of
only the monomials those tables use (the union of their non-zero columns,
about 12 of 35 in the global scope).  ``fidelity_samples`` is the one-state
case, and ``immunity_report`` scores all the states of a scope on one seeded
stream (test_immunity_report_draws_each_frame_once_per_scope).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import dfs_states
from .qcore import (DensityOperator, QuantumState, basis_state, check_count,
                    collective_turn, haar_su2_batch, partial_trace,
                    turn_table)

IMMUNITY_ATOL = 1e-9

# Draws per chunk: the unit of the kernels' work arrays, a (c, CHUNK) stack
# of the c used monomials per wing, shared by every state of the scope, and
# each state's turned tables.  At 1,024 the default 1,000 draws take one
# chunk per scope, so each kernel's numpy calls run once per state, where
# per-call cost dominates.  A larger count still works chunk by chunk: the
# immunity report keeps only each state's running minimum and its draw, so
# its memory is bounded by the chunk
# (test_immunity_report_memory_does_not_grow_with_the_draws), while
# ``fidelity_samples`` returns one float per draw.
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


def _mixed_fidelities(d: np.ndarray, turned: tuple) -> np.ndarray:
    """Uhlmann fidelity of rho with U^(x4) rho U^(x4)^dagger for a chunk of
    global frames, on rho's support: ``turned`` holds the turn of the
    ``turn_table`` of X = V^dagger U^(x4) V, and ``d`` (r,) the square roots
    of the kept eigenvalues (test_density_chunks_match_the_per_draw_route)."""
    x = turned[0].T.reshape(-1, len(d), len(d))
    dxd = d[:, None] * x * d
    ev = np.linalg.eigvalsh(dxd @ dxd.conj().swapaxes(-1, -2))
    return np.minimum(1.0, np.sum(np.sqrt(_chop(ev)), axis=-1) ** 2)


def _pure_fidelities(turned: tuple) -> np.ndarray:
    """|<psi|rotated>|^2 of a pure state for a chunk of frames, on its
    Schmidt support, from the turned ``turn_table``s of one or both wings
    (test_pure_chunks_match_the_per_draw_route)."""
    overlaps = np.prod(turned, axis=0).sum(axis=0)
    return np.minimum(1.0, overlaps.real ** 2 + overlaps.imag ** 2)


def _support(h: np.ndarray):
    """Eigenvectors (16, r) of the Hermitian ``h`` whose eigenvalues pass
    the cut, and those eigenvalues."""
    p, v = np.linalg.eigh(h)
    keep = p >= _CUT
    return v[:, keep], p[keep]


def _scorer(state, scope: str) -> tuple:
    """``(tables, kernel)`` that score ``state`` in ``scope``: the
    ``turn_table`` of each wing, Alice's first (a 4-qubit state or a density
    operator has one), and the chunk kernel of their turns.  The inputs that
    ``fidelity_samples`` does not take raise ValueError here, before any
    draw."""
    if isinstance(state, DensityOperator):
        if scope != "global":
            raise ValueError("density operators support only the global scope")
        if state.n_qubits != 4:
            raise ValueError(
                f"density operators of 4 qubits only, got {state.n_qubits}")
        vecs, p = _support(state.matrix)
        return (turn_table(vecs.conj().T, vecs),), partial(_mixed_fidelities, np.sqrt(p))
    if state.n_qubits == 8:
        m = state.amplitudes.reshape(16, 16)
        left, _ = _support(m @ m.conj().T)
        right = m.conj().T @ left
        return (turn_table(left.conj().T, left),
                turn_table(right.T, right.conj())), _pure_fidelities
    if state.n_qubits == 4:
        if scope == "per-wing":
            raise ValueError("the per-wing scope requires an 8-qubit state, "
                             f"got {state.n_qubits}")
        psi = state.amplitudes
        return (turn_table(psi.conj()[None], psi[:, None]),), _pure_fidelities
    raise ValueError(f"pure states of 4 or 8 qubits only, got {state.n_qubits}")


def _scope_chunks(scorers: list, channel: CollectiveChannel, seed):
    """Each chunk of the channel's draws from the seeded stream, as its first
    draw index and every scorer's fidelities on it.  A chunk's frames are
    drawn in one ``haar_su2_batch`` call, which checks them unitary, Alice's
    before Bob's per wing, and each wing's tables, in scorer order, are one
    ``collective_turn`` by that wing's frames (the one global frame's in the
    global scope): one monomial stack per wing for all the scorers."""
    n_wings = 2 if channel.scope == "per-wing" else 1
    tables = [table for scorer_tables, _ in scorers for table in scorer_tables]
    rng = np.random.default_rng(seed)
    for start in range(0, channel.n_samples, CHUNK):
        k = min(CHUNK, channel.n_samples - start)
        shape = (k, 2) if n_wings == 2 else (k,)
        u = haar_su2_batch(rng, shape).reshape(k, n_wings, 2, 2)
        turned = [None] * len(tables)
        for w in range(n_wings):
            turned[w::n_wings] = collective_turn(tables[w::n_wings], u[:, w])
        turns = iter(turned)
        yield start, [kernel([next(turns) for _ in scorer_tables])
                      for scorer_tables, kernel in scorers]
        # freed before the next chunk's frames and turns are built
        del u, turned, turns


def fidelity_samples(state, channel: CollectiveChannel, seed=0) -> np.ndarray:
    """Per-draw fidelity between a state and its rotated copy, draw i from
    the frames of draw i of the seeded stream, Alice's before Bob's.  It takes
    a pure state of 4 or 8 qubits or a density operator of 4, per wing only a
    pure 8-qubit state; other inputs raise ValueError before any draw."""
    score = _scorer(state, channel.scope)
    out = np.empty(channel.n_samples)
    for start, (fids,) in _scope_chunks([score], channel, seed):
        out[start:start + len(fids)] = fids
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
    """The smallest fidelity over ``n_samples`` draws of the sector states,
    the reduced density (global channel) and the two-wing state (per wing),
    and of two references, a basis word and a GHZ state, whose mean fidelity
    is 1/5 (test_reference_states_lose_fidelity).  The states of a scope
    share its draws, from substream ``(seed, i)`` for the index i of its first
    entry: (seed, 0) for the global scope, (seed, 5) per wing.  So each entry
    equals ``fidelity_samples`` of its state on that substream
    (test_worst_draw_reproduces_the_smallest_fidelity), and one report draws
    n_samples global frames and n_samples per-wing pairs.  Each chunk keeps
    only every state's running minimum and the first draw that gives it.
    Verdicts are the caller's: the command line calls a sector state immune
    when its smallest fidelity is within IMMUNITY_ATOL of 1."""
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
    entries = [None] * len(cases)
    for scope in _SCOPES:
        members = [i for i, case in enumerate(cases) if case[2] == scope]
        channel = CollectiveChannel(n_samples=n_samples, scope=scope)
        scorers = [_scorer(cases[i][1], scope) for i in members]
        best = [(np.inf, 0)] * len(members)
        for start, chunk in _scope_chunks(scorers, channel,
                                          np.random.SeedSequence((seed, members[0]))):
            for j, fids in enumerate(chunk):
                w = int(fids.argmin())
                if fids[w] < best[j][0]:
                    best[j] = (float(fids[w]), start + w)
        for i, (low, draw) in zip(members, best):
            entries[i] = StateImmunity(name=cases[i][0], scope=scope,
                                       min_fidelity=low, worst_draw=draw)
    return ImmunityReport(entries=tuple(entries))
