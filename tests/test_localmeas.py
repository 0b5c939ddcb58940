import json
import math
import tracemalloc
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from dfsbell.correlations import Setting, joint_distribution
from dfsbell import localmeas
from dfsbell.localmeas import (PROTOCOLS, _ALICE_TABLES, _BOB_TABLES, _BRAS,
                               _FRAMES_PER_BLOCK, _INT_BRAS, _PROB_CLIP,
                               _ROUNDS_PER_CHUNK, _SETTING_PAIRS, _TABLES,
                               _draw_words, _fresh_words, _sample_fresh_rotations,
                               _word_tally,
                               classify_outcome, exact_class_cells,
                               max_frame_drift, run_experiment,
                               wing_distribution, wing_outcome_distribution)
from dfsbell.dfs_states import (ETA_COEFFS, SECTOR, make_eta, make_f, make_g,
                                make_phi0, make_phi1, make_psi0)
from dfsbell.qcore import (QuantumState, basis_state, collective_turn, haar_su2,
                           haar_su2_batch, joint_probs, kron, product_bras,
                           turn_table, wing_bras)

F_MINUS_WORDS = {0b0101, 0b0110, 0b1001, 0b1010}
G_MINUS_WORDS = {0b0011, 0b0110, 0b1001, 0b1100}


def _bits(w):
    return ((w >> 3) & 1, (w >> 2) & 1, (w >> 1) & 1, w & 1)


def test_protocol_tables():
    # F pairs qubits (1,2) on z and (3,4) on x; G pairs (1,3) and (2,4)
    assert PROTOCOLS["F"] == (0.0, 0.0, math.pi / 4, math.pi / 4)
    assert PROTOCOLS["G"] == (0.0, math.pi / 4, 0.0, math.pi / 4)


def test_classify_outcome_rule():
    # -1 iff the z-pair bits differ and the x-pair bits differ
    for w in range(16):
        b = _bits(w)
        expect_f = -1 if b[0] != b[1] and b[2] != b[3] else +1
        expect_g = -1 if b[0] != b[2] and b[1] != b[3] else +1
        assert classify_outcome(b, "F") == expect_f
        assert classify_outcome(b, "G") == expect_g
    assert {w for w in range(16) if classify_outcome(_bits(w), "F") == -1} \
        == F_MINUS_WORDS
    with pytest.raises(ValueError):
        classify_outcome((0, 1, 0, 1), "H")


def test_word_distribution_on_phi0():
    # the four classified words each carry exactly 1/4
    probs = wing_distribution(make_phi0(), "F")
    for w in range(16):
        expect = 0.25 if w in F_MINUS_WORDS else 0.0
        assert abs(probs[w] - expect) < 1e-12


def test_word_distribution_on_phi1():
    # the complementary twelve words each carry exactly 1/12
    probs = wing_distribution(make_phi1(), "F")
    for w in range(16):
        expect = 0.0 if w in F_MINUS_WORDS else 1.0 / 12.0
        assert abs(probs[w] - expect) < 1e-12


def test_word_distribution_psi0_under_g():
    probs = wing_distribution(make_psi0(), "G")
    for w in range(16):
        expect = 0.25 if w in G_MINUS_WORDS else 0.0
        assert abs(probs[w] - expect) < 1e-12


def test_outcome_distribution_values():
    assert wing_outcome_distribution(make_phi0(), "F")[-1] == pytest.approx(1.0)
    assert wing_outcome_distribution(make_phi1(), "F")[+1] == pytest.approx(1.0)
    # the two sector bases are mutually unbiased only one way:
    # psi0 splits 1/4 : 3/4 under the first protocol
    dist = wing_outcome_distribution(make_psi0(), "F")
    assert dist[-1] == pytest.approx(0.25, abs=1e-12)
    assert dist[+1] == pytest.approx(0.75, abs=1e-12)


def test_rotation_leaves_outcome_distribution():
    rng = np.random.default_rng(41)
    for _ in range(10):
        u = haar_su2(rng)
        for proto in ("F", "G"):
            base = wing_outcome_distribution(make_phi1(), proto)
            rot = wing_outcome_distribution(make_phi1(), proto, rotation=u)
            assert abs(base[-1] - rot[-1]) < 1e-12


def _protocol_bras(protocol):
    # reference route: the product basis by numpy's kron of the qubit rows
    rows = [np.array([[math.cos(t), math.sin(t)], [math.sin(t), -math.cos(t)]])
            for t in PROTOCOLS[protocol]]
    return reduce(np.kron, rows)


def test_rotated_frames_leave_the_word_pair_distribution_exactly():
    # the alignment-free claim is exact: for every frame pair (U_a, U_b) the
    # 256-word distribution on the two-wing state is the unrotated one
    rng = np.random.default_rng(17)
    ua = np.stack([haar_su2(rng) for _ in range(100)])
    ub = np.stack([haar_su2(rng) for _ in range(100)])
    m = make_eta().amplitudes.reshape(16, 16)
    for pa in ("F", "G"):
        for pb in ("F", "G"):
            p_a, p_b = _protocol_bras(pa), _protocol_bras(pb)
            fixed = joint_probs(p_a, m, p_b)
            rotated = joint_probs(wing_bras(p_a, ua), m, wing_bras(p_b, ub))
            assert np.abs(rotated - fixed).max() < 1e-12
            assert abs(fixed.sum() - 1.0) < 1e-12
    drift, worst = max_frame_drift(100, seed=17)
    assert drift < 1e-12
    assert 0 <= worst < 100


def test_fresh_frame_stream_is_pinned():
    # the seeded tally of fresh-frame rounds, fixed so that a change of how
    # the frames are drawn cannot move it unnoticed
    counts = run_experiment(3000, "random", "fresh", seed=11).to_dict()["counts"]
    assert counts == {
        "F,F": {"-1,-1": 107, "-1,+1": 327, "+1,-1": 301, "+1,+1": 0},
        "F,G": {"-1,-1": 467, "-1,+1": 0, "+1,-1": 72, "+1,+1": 254},
        "G,F": {"-1,-1": 405, "-1,+1": 76, "+1,-1": 0, "+1,+1": 227},
        "G,G": {"-1,-1": 335, "-1,+1": 183, "+1,-1": 189, "+1,+1": 57},
    }


def test_fixed_frame_stream_is_pinned():
    # the seeded tally of fixed-frame rounds, one multinomial per setting pair
    counts = run_experiment(3000, "random", "identity", seed=11).to_dict()["counts"]
    assert counts == {
        "F,F": {"-1,-1": 87, "-1,+1": 331, "+1,-1": 317, "+1,+1": 0},
        "F,G": {"-1,-1": 464, "-1,+1": 0, "+1,-1": 84, "+1,+1": 245},
        "G,F": {"-1,-1": 410, "-1,+1": 78, "+1,-1": 0, "+1,+1": 220},
        "G,G": {"-1,-1": 319, "-1,+1": 182, "+1,-1": 203, "+1,+1": 60},
    }


def test_random_settings_draw_the_pair_counts_as_one_multinomial():
    """The simulation keeps only word tallies.  Random settings draw the four
    setting pairs' round counts as one multinomial, the first draw of the
    seeded stream; fixed frames draw each setting pair's 256-word tally as one
    multinomial, fresh frames draw one word pair per round, and either way the
    tally is classified once into outcome pairs.
    """
    # the four pairs' round counts are one Multinomial(n; 1/4, 1/4, 1/4, 1/4),
    # the first draw of the seeded stream, whichever frames the rounds use
    for frames in ("identity", "fresh"):
        for n in (1, 3, 3000):
            record = run_experiment(n, "random", frames, seed=5)
            totals = [record.setting_total(pair) for pair in _SETTING_PAIRS]
            expected = np.random.default_rng(5).multinomial(n, [0.25] * 4)
            assert totals == expected.tolist(), (frames, n)
    # each total within 5 sigma of n/4
    n = 10 ** 7
    sigma = math.sqrt(n * 0.25 * 0.75)
    for seed in (0, 1, 2):
        record = run_experiment(n, "random", "identity", seed=seed)
        for pair in _SETTING_PAIRS:
            assert abs(record.setting_total(pair) - n / 4) < 5 * sigma, (seed, pair)


def test_eta_has_two_schmidt_terms():
    # eta's matrix is SECTOR ETA_COEFFS SECTOR^T, with an invertible 2x2 core
    # between two orthonormal columns: rank 2, the factors fresh frames turn
    amp16 = make_eta().amplitudes.reshape(16, 16)
    assert np.abs(SECTOR @ ETA_COEFFS @ SECTOR.T - amp16).max() < 1e-15
    assert np.abs(SECTOR.T @ SECTOR - np.eye(2)).max() < 1e-15
    assert abs(np.linalg.det(ETA_COEFFS)) > 0.1


def test_fresh_tables_are_the_tables_of_the_float_factors():
    """Fresh frames turn the state's factors instead of the bras: eta is L R^T
    with L = SECTOR ETA_COEFFS and R = SECTOR, and each wing's bras and factor
    are one ``qcore.turn_table``, built at import from the integer bras, V and
    ETA_TABLE and scaled once, so that a block of frames costs one
    ``qcore.collective_turn`` per wing.
    """
    # the tables built at import from integers are those of each wing's bras
    # with eta's float factors L = SECTOR ETA_COEFFS and R = SECTOR
    for p in ("F", "G"):
        for table, factor in ((_ALICE_TABLES[p], SECTOR @ ETA_COEFFS),
                              (_BOB_TABLES[p], SECTOR)):
            assert table.dtype == float and table.shape == (32, 35)
            assert np.abs(table - turn_table(_BRAS[p], factor)).max() < 1e-15


def _bra_route_words(amp16, bras_a, ua, bras_b, ub, r):
    # reference route: one draw from the clipped, normalized 256-word joint
    # distribution of the wings' bras turned by their frames
    p = joint_probs(wing_bras(bras_a, ua), amp16, wing_bras(bras_b, ub))
    p = p.reshape(-1, 256)
    p = np.where(p < _PROB_CLIP, 0.0, p)
    return _draw_words((p / p.sum(axis=1, keepdims=True)).T, r)[0]


def test_two_stage_draw_is_the_bra_route_draw_for_draw():
    """Bob's turned R is orthonormal, so Alice's marginal ignores his frame: at
    the round's one uniform Alice's word comes from her 16-word marginal, then
    Bob's from his row given hers, which reads the 256 word pairs' inverse CDF
    in Alice-major order; in each stage a uniform past a row's end takes its
    last possible word.
    """
    # Alice's word from her marginal, then Bob's from his row given hers,
    # at the round's one uniform, draws the word pair one draw from the
    # 256-word joint distribution of the turned bras would
    eta16 = make_eta().amplitudes.reshape(16, 16)
    for seed in (3, 7, 11):
        rng = np.random.default_rng(seed)
        for pa, pb in (("F", "F"), ("F", "G"), ("G", "F"), ("G", "G")):
            ua = haar_su2_batch(rng, (2048,))
            ub = haar_su2_batch(rng, (2048,))
            r = rng.random(2048)
            words = _fresh_words(_ALICE_TABLES[pa], ua, _BOB_TABLES[pb], ub, r)
            expect = _bra_route_words(eta16, _BRAS[pa], ua, _BRAS[pb], ub, r)
            assert (words == expect).all(), (seed, pa, pb)


def test_two_stage_draw_needs_no_rotation_invariance():
    """Bob's row given Alice's word a is his two turned columns contracted with
    her turned row xa[a], since R xa[a] lies in R's span: linearity alone, no
    invariance of the state, and every frame is applied numerically on both
    wings.
    """
    # on states that the frames do move, with tables of general factors
    # (M, I): the marginal times the conditional row is the joint
    # distribution of the turned bras, and the draws are the bra route's
    rng = np.random.default_rng(47)
    amps = rng.normal(size=256) + 1j * rng.normal(size=256)
    states = (amps / np.linalg.norm(amps), basis_state("01010011").amplitudes)
    for state in states:
        amp16 = state.reshape(16, 16)
        for pa in ("F", "G"):
            for pb in ("F", "G"):
                table_a = turn_table(_BRAS[pa], amp16)
                table_b = turn_table(_BRAS[pb], np.eye(16))
                ua = haar_su2_batch(rng, (256,))
                ub = haar_su2_batch(rng, (256,))
                r = rng.random(256)
                joint = joint_probs(wing_bras(_BRAS[pa], ua), amp16,
                                    wing_bras(_BRAS[pb], ub))
                xa, xb = (collective_turn(t, u.conj().swapaxes(-1, -2)).reshape(16, 16, 256)
                          for t, u in ((table_a, ua), (table_b, ub)))
                marginal = (np.abs(xa) ** 2).sum(axis=1).T
                assert np.abs(marginal - joint.sum(axis=2)).max() < 1e-14
                rows = np.abs(np.einsum("akm,bkm->mab", xa, xb)) ** 2
                conditional = rows / marginal[:, :, None]
                assert np.abs(marginal[:, :, None] * conditional - joint).max() < 1e-14
                words = _fresh_words(table_a, ua, table_b, ub, r)
                expect = _bra_route_words(amp16, _BRAS[pa], ua, _BRAS[pb], ub, r)
                assert (words == expect).all(), pa + pb
                still = joint_probs(_BRAS[pa], amp16, _BRAS[pb])
                assert np.abs(joint - still).max() > 1e-3


def test_frame_blocks_leave_the_chunk_tally():
    """Two units split the fresh-frame work: the seeded stream is drawn a chunk
    of ``_ROUNDS_PER_CHUNK`` rounds at a time (Alice's frames, then Bob's, then
    the uniforms), and the word kernel runs on blocks of ``_FRAMES_PER_BLOCK``
    of those frames, a size set by cache, not by the stream; a round's words
    depend on the rest of its block only through the rounding of the turn's
    product.
    """
    # each chunk draws its frames and uniforms in one piece and runs the word
    # kernel block by block; with a ragged last chunk and a ragged last block
    # the tally is that of one kernel call per whole chunk, and the stream
    # ends where that leaves it
    last = 700
    assert last > _FRAMES_PER_BLOCK and last % _FRAMES_PER_BLOCK
    for seed in (3, 7, 11):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        expect = np.zeros(256, dtype=np.int64)
        for m in (_ROUNDS_PER_CHUNK, last):
            ua = haar_su2_batch(ref, (m,))
            ub = haar_su2_batch(ref, (m,))
            words = _fresh_words(_ALICE_TABLES["G"], ua, _BOB_TABLES["F"], ub,
                                 ref.random(m))
            expect += np.bincount(words, minlength=256)
        tally = _sample_fresh_rotations(_ALICE_TABLES["G"], _BOB_TABLES["F"],
                                        _ROUNDS_PER_CHUNK + last, rng)
        assert np.array_equal(tally, expect), seed
        assert rng.random() == ref.random()


def test_fresh_counts_do_not_depend_on_the_block_size(monkeypatch):
    # the blocks cut the frames, not the products: the seeded counts are the
    # same at any block size.  One-frame blocks, which agree too (ROADMAP
    # item 11), are left out for their cost.
    counts = []
    for block in (7, 64, 256, 1000):
        monkeypatch.setattr(localmeas, "_FRAMES_PER_BLOCK", block)
        counts.append(run_experiment(3000, rotations_policy="fresh", seed=5).counts)
    assert all(c == counts[0] for c in counts[1:])


# Outcome-pair cells as (-,-), (-,+), (+,-), (+,+), and the nonzero words,
# of each setting pair's unrotated word-pair distribution on eta
EXACT_CELLS = {
    ("F", "F"): ((1, 7), (3, 7), (3, 7), (0, 1), 112),
    ("F", "G"): ((4, 7), (0, 1), (3, 28), (9, 28), 208),
    ("G", "F"): ((4, 7), (3, 28), (0, 1), (9, 28), 208),
    ("G", "G"): ((7, 16), (27, 112), (27, 112), (9, 112), 256),
}


def test_word_tables_are_exact_integer_distributions():
    """In unrotated frames every probability is exact: twice the bras are
    integer matrices B_p, so each setting pair's 256-word distribution is the
    integer table (B_a ETA_INT B_b^T)^2 over 1792.  Fixed frames draw from
    these tables, the frame-drift check compares against them, and
    ``exact_class_cells`` reads their outcome-pair cells as Fractions.
    """
    cells = exact_class_cells()
    assert list(_TABLES) == list(EXACT_CELLS)
    for pair, (*fractions, nonzero) in EXACT_CELLS.items():
        table = _TABLES[pair]
        assert table.dtype.kind == "i" and table.shape == (256,)
        assert table.sum() == 1792
        assert np.count_nonzero(table) == nonzero
        assert list(cells[pair].values()) == [Fraction(*f) for f in fractions]


def test_word_tables_are_the_float_born_probabilities():
    # the integer bras are twice the product bras, and each table over 1792
    # is the word-pair distribution of the float amplitudes
    amp16 = make_eta().amplitudes.reshape(16, 16)
    for p in ("F", "G"):
        assert np.abs(2 * product_bras(PROTOCOLS[p]) - _INT_BRAS[p]).max() < 1e-15
    for (pa, pb), table in _TABLES.items():
        p = joint_probs(product_bras(PROTOCOLS[pa]), amp16, product_bras(PROTOCOLS[pb]))
        assert np.abs(table / 1792 - p.ravel()).max() < 1e-16


def test_a_frame_that_skips_a_qubit_breaks_the_forbidden_event(monkeypatch):
    # non-vacuity of the fresh-frame check: once the turn leaves one qubit
    # alone, (F,F) (+1,+1) happens.  The stand-in turns the rows and vecs of
    # each wing's table by U^(x3) x I through kron, in the order of the
    # table's rows and collective_turn's frame-last layout.
    assert run_experiment(2000, "random", "fresh", seed=5).counts[("F", "F")][(1, 1)] == 0
    factors = (SECTOR @ ETA_COEFFS, SECTOR)
    routes = {id(tables[p]): (_BRAS[p], factor)
              for tables, factor in zip((_ALICE_TABLES, _BOB_TABLES), factors)
              for p in PROTOCOLS}
    for skipped in range(4):
        def partial_turn(table, u):
            rows, vecs = routes[id(table)]
            turns = [u] * 4
            turns[skipped] = np.broadcast_to(np.eye(2), u.shape)
            turned = np.einsum("ai,mij,jr->arm", rows, kron(turns), vecs)
            return turned.reshape(-1, len(u))

        monkeypatch.setattr(localmeas, "collective_turn", partial_turn)
        counts = run_experiment(2000, "random", "fresh", seed=5).counts
        assert counts[("F", "F")][(1, 1)] > 0, skipped


def test_word_tally_leaves_a_word_of_probability_zero_empty():
    # numpy's multinomial gives the last category what the others leave; on
    # a row summing 1e-6 below 1 the full row would put about 1000 of 1e9
    # rounds on its last word, which has probability 0
    p = np.random.default_rng(23).random(256)
    p[[7, 100, 255]] = 0.0
    p *= (1.0 - 1e-6) / p.sum()
    tally = _word_tally(p, 10 ** 9, np.random.default_rng(29))
    assert tally.sum() == 10 ** 9
    assert tally[255] == 0
    assert not tally[p == 0].any()


def test_fixed_frame_tally_matches_the_eigen_bras_route():
    # second route: the labelled eigen-bras of F and G on the 256-dim state;
    # every cell within 5 sigma of its exact probability, zero cells empty;
    # each setting pair gets about 10**7 of the rounds
    record = run_experiment(4 * 10 ** 7, seed=31)
    observables = {"F": make_f(), "G": make_g()}
    for pa in ("F", "G"):
        for pb in ("F", "G"):
            exact = joint_distribution(make_eta(), Setting(observables[pa]),
                                       Setting(observables[pb]))
            n = record.setting_total((pa, pb))
            for cell, count in record.counts[(pa, pb)].items():
                p = exact[cell]
                if p < 1e-12:
                    assert count == 0, (pa, pb, cell)
                else:
                    assert abs(count - n * p) < 5 * math.sqrt(n * p * (1 - p)), \
                        (pa, pb, cell)


def test_run_experiment_traced_peak_memory():
    # fixed frames build no per-round array: random settings are one
    # multinomial of four counts, so a run of 10**6 or 10**12 rounds peaks at
    # about 15 KB.  Fresh frames turn a 32-row
    # table per wing, a block of 256 frames at a time: 8,000 rounds peak at
    # about 0.9 MB, where whole-chunk temporaries of 2,048 frames peaked at
    # 4.75 MB in an earlier kernel and (rounds, 256)
    # word-pair probabilities or (rounds, 16, 16) U^(x4) stacks would go
    # higher still.  numpy.random is imported first, so that its one-time
    # imports are not traced.
    import numpy.random  # noqa: F401
    n = 10 ** 6
    for rounds, settings, frames, limit in ((n, "random", "identity", 10 ** 5),
                                            (10 ** 12, "random", "identity", 10 ** 5),
                                            (8000, "random", "fresh", 3 * 10 ** 6)):
        tracemalloc.start()
        try:
            run_experiment(rounds, settings, frames, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, (settings, frames, peak)


def test_a_uniform_past_the_last_cumulative_value_draws_a_possible_word():
    # a normalized row can sum to a few ulps below 1; a uniform between that
    # sum and 1 must still draw a word of positive probability
    top = np.nextafter(1.0, 0.0)
    p = np.zeros((256, 1))
    p[:3, 0] = (0.5, 0.25, 0.25 - 2.0 ** -52)
    assert _draw_words(p, np.array([top]))[0].tolist() == [2]
    # seeded fresh-frame (F,F) rounds at that uniform, in both stages: word
    # 255 is the forbidden (+1,+1) pair and has probability 0 in every frame
    rng = np.random.default_rng(5)
    ua = haar_su2_batch(rng, (512,))
    ub = haar_su2_batch(rng, (512,))
    bras = _BRAS["F"]
    p = joint_probs(wing_bras(bras, ua), make_eta().amplitudes.reshape(16, 16),
                    wing_bras(bras, ub)).reshape(512, 256)
    words = _fresh_words(_ALICE_TABLES["F"], ua, _BOB_TABLES["F"], ub, np.full(512, top))
    assert (p[np.arange(512), words] >= _PROB_CLIP).all() and 255 not in words


def test_word_distribution_matches_the_reference_product_basis():
    rng = np.random.default_rng(19)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    s = QuantumState(amps / np.linalg.norm(amps))
    u = haar_su2(rng)
    big = reduce(np.kron, [u] * 4)
    for proto in ("F", "G"):
        bras = _protocol_bras(proto)
        assert np.allclose(wing_distribution(s, proto),
                           np.abs(bras @ s.amplitudes) ** 2, atol=1e-14)
        assert np.allclose(wing_distribution(s, proto, rotation=u),
                           np.abs(bras @ big.conj().T @ s.amplitudes) ** 2,
                           atol=1e-13)


def test_run_experiment_counts_and_determinism():
    rec = run_experiment(4000, settings_policy="random", seed=13)
    total = sum(sum(c.values()) for c in rec.counts.values())
    assert total == 4000
    again = run_experiment(4000, settings_policy="random", seed=13)
    assert rec.counts == again.counts
    other = run_experiment(4000, settings_policy="random", seed=14)
    assert rec.counts != other.counts


def test_an_empty_setting_pair_has_no_frequency():
    # one round leaves three setting pairs without rounds: their frequencies
    # are NaN, not 0
    rec = run_experiment(1, seed=0)
    empty = [pair for pair in rec.counts if rec.setting_total(pair) == 0]
    assert len(empty) == 3
    assert all(math.isnan(rec.frequency(pair, (+1, +1))) for pair in empty)


def test_run_experiment_forbidden_events_stay_empty():
    for policy in ("identity", "fresh"):
        rec = run_experiment(20000, settings_policy="random",
                             rotations_policy=policy, seed=3)
        assert rec.counts[("F", "F")][(+1, +1)] == 0
        assert rec.counts[("F", "G")][(-1, +1)] == 0
        assert rec.counts[("G", "F")][(+1, -1)] == 0


def test_fresh_rotations_match_identity_statistics():
    # same seed, different frames: the classified frequencies agree within
    # binomial noise (5 sigma, p about 0.08, roughly 5000 GG rounds each)
    p = 9.0 / 112.0
    freqs = []
    for policy in ("identity", "fresh"):
        rec = run_experiment(20000, settings_policy="random",
                             rotations_policy=policy, seed=6)
        n = rec.setting_total(("G", "G"))
        freqs.append(rec.frequency(("G", "G"), (+1, +1)))
        assert abs(freqs[-1] - p) < 5 * math.sqrt(p * (1 - p) / n)
    assert abs(freqs[0] - freqs[1]) < 10 * math.sqrt(p * (1 - p) / 5000)


def test_record_serializes_to_json():
    rec = run_experiment(100, settings_policy="random", seed=1)
    payload = json.loads(json.dumps(rec.to_dict()))
    assert payload["n_rounds"] == 100
    assert set(payload["counts"]) == {"F,F", "F,G", "G,F", "G,G"}
    assert all(set(v) == {"-1,-1", "-1,+1", "+1,-1", "+1,+1"}
               for v in payload["counts"].values())


def test_invalid_arguments():
    with pytest.raises(ValueError):
        run_experiment(0)
    for policy in ("sometimes", "GG", ("G", "G"), None):
        with pytest.raises(ValueError, match="unknown settings_policy"):
            run_experiment(10, settings_policy=policy)
    # counts are integers: no 1.5 rounds recorded as 1.5 and tallied as 1
    for n_rounds, policy in ((1.5, "identity"), (7.9, "fresh"), (True, "identity")):
        with pytest.raises(ValueError, match="n_rounds must be an integer"):
            run_experiment(n_rounds, rotations_policy=policy)
    with pytest.raises(ValueError):
        run_experiment(10, rotations_policy="stale")
    with pytest.raises(ValueError):
        wing_distribution(make_phi0(), "Q")
    for n_frames in (0, -2):
        with pytest.raises(ValueError, match="n_frames must be >= 1"):
            max_frame_drift(n_frames, seed=17)
    with pytest.raises(ValueError, match="n_frames must be an integer"):
        max_frame_drift(2.5, seed=0)
