import math
import tracemalloc

import numpy as np
import pytest

from dfsbell import decohere, qcore
from dfsbell.decohere import (IMMUNITY_ATOL, CollectiveChannel,
                              fidelity_samples, immunity_report,
                              state_fidelity)
from dfsbell.dfs_states import (make_eta, make_phi0, make_phi1, make_psi0,
                                make_psi1)
from dfsbell.qcore import (DensityOperator, QuantumState, apply_collective,
                           basis_state, haar_su2, kron, partial_trace)


def _density(s):
    """The projector |s><s| of a pure state."""
    return DensityOperator(np.outer(s.amplitudes, s.amplitudes.conj()))


def test_channel_validation():
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        CollectiveChannel(n_samples=0)
    for n in (2.5, True):
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            CollectiveChannel(n_samples=n)
    with pytest.raises(ValueError, match="n_samples must be an integer"):
        immunity_report(2.5)
    with pytest.raises(ValueError):
        CollectiveChannel(scope="local")


def test_sector_states_keep_unit_fidelity():
    channel = CollectiveChannel(n_samples=300)
    for state in (make_phi0(), make_phi1()):
        fids = fidelity_samples(state, channel, seed=1)
        assert fids.min() > 1.0 - IMMUNITY_ATOL


def test_two_wing_state_survives_independent_rotations():
    channel = CollectiveChannel(n_samples=100, scope="per-wing")
    fids = fidelity_samples(make_eta(), channel, seed=2)
    assert fids.min() > 1.0 - IMMUNITY_ATOL


def test_reduced_density_survives_global_rotations():
    rho = partial_trace(make_eta(), keep=(1, 2, 3, 4))
    fids = fidelity_samples(rho, CollectiveChannel(n_samples=100), seed=3)
    assert fids.min() > 1.0 - IMMUNITY_ATOL


def test_reference_states_lose_fidelity():
    channel = CollectiveChannel(n_samples=1000)
    # mean fidelity of a basis word under a common random rotation is 1/5;
    # 1000 draws put the sample mean within a few times 0.01 of it
    fids = fidelity_samples(basis_state("0101"), channel, seed=4)
    assert fids.min() < 0.99
    assert abs(fids.mean() - 0.2) < 0.05
    ghz = np.zeros(16, dtype=complex)
    ghz[0b0000] = ghz[0b1111] = 1 / math.sqrt(2)
    fids = fidelity_samples(QuantumState(ghz), channel, seed=5)
    assert fids.min() < 0.99
    assert abs(fids.mean() - 0.2) < 0.05


def test_state_fidelity_routes_agree():
    # pure-pure, pure-mixed and mixed-mixed must give the same number on
    # pure inputs
    rng = np.random.default_rng(71)
    for _ in range(5):
        a = rng.normal(size=16) + 1j * rng.normal(size=16)
        b = rng.normal(size=16) + 1j * rng.normal(size=16)
        sa = QuantumState(a / np.linalg.norm(a))
        sb = QuantumState(b / np.linalg.norm(b))
        f_pp = state_fidelity(sa, sb)
        f_pm = state_fidelity(sa, _density(sb))
        f_mm = state_fidelity(_density(sa), _density(sb))
        assert f_pm == pytest.approx(f_pp, abs=1e-10)
        assert f_mm == pytest.approx(f_pp, abs=1e-8)


def test_state_fidelity_known_values():
    assert state_fidelity(make_phi0(), make_phi0()) == pytest.approx(1.0)
    assert state_fidelity(make_phi0(), make_phi1()) == pytest.approx(0.0, abs=1e-12)
    rho = partial_trace(make_eta(), keep=(1, 2, 3, 4))
    assert state_fidelity(make_phi0(), rho) == pytest.approx(4.0 / 7.0)
    assert state_fidelity(rho, _density(make_phi0())) == pytest.approx(4.0 / 7.0)


def test_density_rejects_per_wing_scope():
    rho = partial_trace(make_eta(), keep=(1, 2, 3, 4))
    channel = CollectiveChannel(n_samples=10, scope="per-wing")
    with pytest.raises(ValueError):
        fidelity_samples(rho, channel, seed=8)


def test_immunity_report_structure():
    rep = immunity_report(n_samples=50, seed=9)
    assert all(e.min_fidelity > 1.0 - IMMUNITY_ATOL
               for e in rep.entries if e.name.startswith("sector"))
    names = [e.name for e in rep.entries]
    assert "sector reduced density" in names
    assert "sector two-wing eta" in names
    for e in rep.entries:
        if e.name.startswith("reference"):
            assert e.min_fidelity <= 1.0 - IMMUNITY_ATOL


def test_immunity_report_seeded_repeatability():
    a = immunity_report(n_samples=20, seed=10)
    b = immunity_report(n_samples=20, seed=10)
    assert [e.min_fidelity for e in a.entries] == [e.min_fidelity for e in b.entries]


def _report_states():
    """The states of ``immunity_report``'s entries, in its order."""
    reduced = partial_trace(make_eta(), keep=(1, 2, 3, 4))
    return [make_phi0(), make_phi1(), make_psi0(), make_psi1(), reduced,
            make_eta(), basis_state((0, 1, 0, 1)), _ghz4()]


def test_worst_draw_reproduces_the_smallest_fidelity(monkeypatch):
    # every entry is fidelity_samples of its state on its scope's substream,
    # (seed, 0) global and (seed, 5) per wing, bit for bit.  Across chunks of
    # 7 draws the running minimum keeps argmin's first index on ties: here
    # phi1 has its minimum at draws 19 and 27, the two-wing state at 2, 16
    # and 35
    for chunk in (decohere.CHUNK, 7):
        monkeypatch.setattr(decohere, "CHUNK", chunk)
        rep = immunity_report(n_samples=40, seed=12)
        assert len(rep.entries) == 8
        for e, state in zip(rep.entries, _report_states()):
            substream = 5 if e.scope == "per-wing" else 0
            fids = fidelity_samples(state, CollectiveChannel(40, e.scope),
                                    seed=np.random.SeedSequence((12, substream)))
            assert e.worst_draw == int(np.argmin(fids)), (chunk, e.name)
            assert fids[e.worst_draw] == e.min_fidelity, (chunk, e.name)


def test_immunity_report_draws_each_frame_once_per_scope(monkeypatch):
    # the seven global states share n frames and their monomial stacks, the
    # two-wing state has its n frame pairs: 3n frames drawn and expanded, not
    # n (or 2n) per entry; the stand-in forwards the stacks' used columns
    monkeypatch.setattr(decohere, "CHUNK", 64)
    drawn, expanded = [], []
    draw, expand = decohere.haar_su2_batch, decohere.frame_monomials

    def counted_draw(rng, shape):
        drawn.append(math.prod(shape))
        return draw(rng, shape)

    def counted_expand(u, cols):
        expanded.append(len(u))
        return expand(u, cols)
    monkeypatch.setattr(decohere, "haar_su2_batch", counted_draw)
    monkeypatch.setattr(decohere, "frame_monomials", counted_expand)
    immunity_report(100, seed=1)
    assert sum(drawn) == 300
    assert sum(expanded) == 300


def test_density_draws_match_the_pure_route():
    # the density path turns the 1 x 1 table of rho's one support column; on a
    # pure state's density its fidelity with the state equals the pure-state
    # draw's
    rng = np.random.default_rng(21)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    s = QuantumState(amps / np.linalg.norm(amps))
    channel = CollectiveChannel(n_samples=20)
    pure = fidelity_samples(s, channel, seed=4)
    mixed = fidelity_samples(_density(s), channel, seed=4)
    assert np.abs(pure - mixed).max() <= 1e-14


def _random_state(rng, n):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return QuantumState(amps / np.linalg.norm(amps))


def _random_density(rng, n, rank=3):
    vs = [_density(_random_state(rng, n)).matrix for _ in range(rank)]
    return DensityOperator(sum(vs) / rank)


# The chunk-boundary tests run with this many draws per chunk, so that the
# per-draw route they compare against stays cheap at any CHUNK.
_TEST_CHUNK = 32


@pytest.mark.parametrize("n_samples", [1, _TEST_CHUNK, _TEST_CHUNK + 1])
def test_density_chunks_match_the_per_draw_route(monkeypatch, n_samples):
    """A 4-qubit density operator rho = V D^2 V^dagger keeps its eigenvectors V
    past the cut and D = diag(sqrt p) of their eigenvalues p.  With sqrt(rho) =
    V D V^dagger, the Uhlmann fidelity with sigma = U^(x4) rho U^(x4)^dagger is
    ||sqrt(rho) U^(x4) sqrt(rho)||_1^2, the squared sum of the singular values
    of D X D for X = V^dagger U^(x4) V: the square roots of the eigenvalues of
    (D X D)(D X D)^dagger, which are the nonzero eigenvalues of sqrt(rho) sigma
    sqrt(rho), one batched eigensolve per chunk.  The identity needs U unitary,
    and the final clamp to 1 would hide a frame that is not, so every chunk's
    frames pass ``qcore.check_unitary`` first.
    """
    monkeypatch.setattr(decohere, "CHUNK", _TEST_CHUNK)
    rho = _random_density(np.random.default_rng(31), 4)
    chunked = fidelity_samples(rho, CollectiveChannel(n_samples), seed=5)
    single = np.random.default_rng(5)
    per_draw = []
    for _ in range(n_samples):
        big = kron([haar_su2(single)] * 4)
        turned = DensityOperator(big @ rho.matrix @ big.conj().T)
        per_draw.append(state_fidelity(rho, turned))
    assert np.abs(chunked - per_draw).max() <= 1e-14
    # the reference route is not trivially 1
    assert min(per_draw) < 0.99


def _ghz4():
    amps = np.zeros(16, dtype=complex)
    amps[0b0000] = amps[0b1111] = 1 / math.sqrt(2)
    return QuantumState(amps)


_PURE_CASES = {
    "phi0": (make_phi0(), "global"),
    "0101": (basis_state("0101"), "global"),
    "GHZ": (_ghz4(), "global"),
    "random 4": (_random_state(np.random.default_rng(41), 4), "global"),
    "eta global": (make_eta(), "global"),
    "eta per-wing": (make_eta(), "per-wing"),
    "0101 x 0101": (basis_state("01010101"), "per-wing"),
    "random 8": (_random_state(np.random.default_rng(42), 8), "per-wing"),
}


def _per_draw_route(state, scope, n_samples, seed):
    """Frames and fidelities of the per-draw route: one ``haar_su2`` frame
    per draw and wing, Alice's before Bob's, turned by ``apply_collective``."""
    rng = np.random.default_rng(seed)
    frames, fids = [], []
    for _ in range(n_samples):
        if scope == "global":
            u = haar_su2(rng)
            frames.append(u)
            turned = apply_collective(state, u)
        else:
            a, b = haar_su2(rng), haar_su2(rng)
            frames.append(np.stack([a, b]))
            turned = apply_collective(apply_collective(state, a, wing="alice"),
                                      b, wing="bob")
        fids.append(state_fidelity(state, turned))
    return np.stack(frames), np.array(fids)


@pytest.mark.parametrize("n_samples", [1, _TEST_CHUNK, _TEST_CHUNK + 1])
@pytest.mark.parametrize("name", list(_PURE_CASES))
def test_pure_chunks_match_the_per_draw_route(monkeypatch, name, n_samples):
    """Every draw takes its frames from the seeded stream in chunks of CHUNK
    (1,024) draws, one ``qcore.haar_su2_batch`` call per chunk: shape (k,) in
    the global scope, (k, 2) per wing, so that draw by draw Alice's frame comes
    before Bob's, as k single draws would give them.  The default 1,000 draws
    are one chunk per state, and the chunk bounds memory for any larger count.

    A pure state, as a 16 x 16 matrix M with Alice's index first when it has 8
    qubits, keeps the r eigenvectors L of M M^dagger past the cut (its Schmidt
    support; r = 2 for the two-wing state).  With R = M^dagger L it gives
    <psi|U_a^(x4) x U_b^(x4)|psi> = sum_ij X_ij Y_ij for the tables X =
    L^dagger U_a^(x4) L and Y = R^T U_b^(x4) conj(R), not 16 x 16.  This scores
    psi' = (L L^dagger x 1) psi, which differs from psi by a vector of squared
    norm e, the sum of the dropped eigenvalues (below 1.5e-11); the fidelity
    moves by at most 4 sqrt(e) + 2 e.  When psi has Schmidt rank r exactly, as
    the two-wing state does, e is rounding noise.  A 4-qubit state is the
    one-wing case L = psi, whose 1 x 1 table is the overlap <psi|rotated>.
    Either way the fidelity is the overlap's squared modulus.
    """
    monkeypatch.setattr(decohere, "CHUNK", _TEST_CHUNK)
    state, scope = _PURE_CASES[name]
    drawn, original = [], decohere.haar_su2_batch

    def recorded(rng, shape):
        drawn.append(original(rng, shape))
        return drawn[-1]
    monkeypatch.setattr(decohere, "haar_su2_batch", recorded)
    chunked = fidelity_samples(state, CollectiveChannel(n_samples, scope), seed=6)
    frames, per_draw = _per_draw_route(state, scope, n_samples, seed=6)
    assert np.array_equal(np.concatenate(drawn), frames)
    assert np.abs(chunked - per_draw).max() <= 1e-14
    if name in ("0101 x 0101", "random 8"):
        # the per-wing kernel is not trivially 1 off the sector
        assert chunked.min() < 0.99


@pytest.mark.parametrize("state, scope", [
    (basis_state("01"), "global"),
    (basis_state("010101"), "global"),
    (basis_state("0101"), "per-wing"),
    (basis_state("010101"), "per-wing"),
    (_density(basis_state("01")), "global"),
    (_density(basis_state("01010101")), "global"),
])
def test_unsupported_pure_inputs_raise_before_any_draw(monkeypatch, state, scope):
    drawn = []
    monkeypatch.setattr(decohere, "haar_su2_batch",
                        lambda rng, shape: drawn.append(shape))
    with pytest.raises(ValueError):
        fidelity_samples(state, CollectiveChannel(n_samples=3, scope=scope))
    assert drawn == []


def test_a_frame_that_is_not_unitary_raises_in_the_density_kernel(monkeypatch):
    # the density fidelity ||sqrt(rho) U sqrt(rho)||_1^2 holds only for a
    # unitary U, and the clamp of the fidelity to 1 would hide a frame that is
    # not: each chunk's frames must pass the unitarity check that
    # haar_su2_batch runs on the frames it draws
    original = qcore._haar_matrices
    monkeypatch.setattr(qcore, "_haar_matrices",
                        lambda rng, shape: original(rng, shape) * (1 + 1e-6))
    rho = partial_trace(make_eta(), keep=(1, 2, 3, 4))
    with pytest.raises(ValueError, match="not unitary"):
        fidelity_samples(rho, CollectiveChannel(n_samples=3), seed=1)


@pytest.mark.parametrize("state, scope, shapes", [
    (make_phi0(), "global", [(1, 3)]),
    (partial_trace(make_eta(), keep=(1, 2, 3, 4)), "global", [(4, 8)]),
    (_random_density(np.random.default_rng(31), 4), "global", [(9, 35)]),
    (make_eta(), "per-wing", [(4, 8), (4, 3)]),
], ids=["pure 4", "reduced density", "rank-3 density", "eta per-wing"])
def test_every_turned_table_has_r_squared_rows(monkeypatch, state, scope, shapes):
    """Each state is scored on its support only: r orthonormal columns S, cut
    where an eigenvalue falls below the 1e-12 that ``state_fidelity`` chops to
    zero.  It takes the (r^2, 35) ``qcore.turn_table`` of S^dagger and S per
    wing, whose ``qcore.monomial_turn`` by the chunk's monomials is the r x r
    table S^dagger U^(x4) S, and each chunk makes one turn per wing, with no
    U^(x4) formed and no turned state or density operator built.  The turn
    keeps only the k columns of the table that are not exactly zero.
    """
    # a support of r columns turns the r x r table V^dagger U^(x4) V, r^2
    # rows: 2 Schmidt columns per wing of the two-wing state, 4 rows, not the
    # 256 of a 16 x 16 block, and 2 columns of its reduced density, not 16 x 2.
    # A sector state uses the 3 monomials of det(U)^2; the reduced density
    # and Alice's wing of the two-wing state 8, five of them at about 1e-32,
    # which stay; the rank-3 density all 35
    widths, original = [], decohere.monomial_turn

    def recorded(table, mono):
        widths.append(table.shape)
        return original(table, mono)
    monkeypatch.setattr(decohere, "monomial_turn", recorded)
    fidelity_samples(state, CollectiveChannel(3, scope), seed=1)
    assert widths == shapes


def test_immunity_report_does_not_depend_on_the_chunk_size(monkeypatch):
    # the chunks cut the draws, not the products: every float of the report
    # is the same at any CHUNK from 2 up.  One-draw chunks are left out:
    # there three floats move by ulps, as a one-frame product takes another
    # BLAS path (ROADMAP item 11).
    reports = []
    for chunk in (3, 7, 256, 1000, 1024):
        monkeypatch.setattr(decohere, "CHUNK", chunk)
        reports.append(immunity_report(300, seed=3))
    assert all(r == reports[0] for r in reports[1:])


def test_immunity_report_traced_memory():
    # 1.39 MB traced at any CHUNK from 256 to 2,048: the peak is the 1 MB
    # 8-qubit density that partial_trace forms for the reduced state.  A
    # chunk's own work arrays peak below that, as each wing's monomial stack
    # holds only its 3 to 12 used columns; two full (35, 1,024) stacks per
    # wing took the peak to about 1.7 MB.  numpy.random is imported first,
    # so that its one-time imports are not traced.
    import numpy.random  # noqa: F401
    tracemalloc.start()
    try:
        immunity_report(n_samples=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6e6


def test_immunity_report_memory_does_not_grow_with_the_draws():
    # each chunk keeps every state's running minimum and its draw, with no
    # array of one float per draw, so 100,000 draws stay under the bound
    # that 1,000 draws meet above (1.39 MB traced at either count)
    import numpy.random  # noqa: F401
    tracemalloc.start()
    try:
        immunity_report(n_samples=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6e6
