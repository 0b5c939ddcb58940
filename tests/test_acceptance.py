"""Acceptance gate: one test per criterion, each printing its verdict line.

Run with ``pytest -v`` so every criterion shows as its own pass/fail row;
the printed lines carry the measured values for the record.
"""

import json
import math
import time
from fractions import Fraction
from importlib import resources

import numpy as np
from click.testing import CliRunner

import dfsbell as d
from dfsbell.cli import main as cli_main
from dfsbell.localmeas import wing_distribution
from dfsbell.report import Check, Report, Section, render_text


def _verdict(criterion, ok, detail):
    line = f"acceptance criterion {criterion:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_exact_correlation_values():
    t0 = time.perf_counter()
    eta = d.make_eta()
    fa = fb = d.Setting(d.make_f())
    ga = gb = d.Setting(d.make_g())
    errs = [
        abs(d.joint_probability(eta, fa, fb, +1, +1) - 0.0),
        abs(d.conditional_probability(eta, (fa, +1, "alice"), (gb, +1, "bob")) - 1.0),
        abs(d.conditional_probability(eta, (fb, +1, "bob"), (ga, +1, "alice")) - 1.0),
        abs(d.joint_probability(eta, ga, gb, +1, +1) - 9.0 / 112.0),
    ]
    elapsed = time.perf_counter() - t0
    ok = max(errs) < 1e-10 and elapsed < 1.0
    _verdict(1, ok, f"max error {max(errs):.3e}, {elapsed:.2f}s")


def test_criterion_02_rotation_invariance():
    t0 = time.perf_counter()
    suite = d.verify_correlation_suite(n_rotation_samples=100, seed=0)
    worst = max(suite.max_deviation.values())
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    _verdict(2, ok, f"worst deviation {worst:.3e} over 100 tuples, {elapsed:.1f}s")


def test_criterion_03_monte_carlo_experiment():
    t0 = time.perf_counter()
    rec = d.run_experiment(10 ** 6, settings_policy="random", seed=0)
    p = 9.0 / 112.0
    n_gg = rec.setting_total(("G", "G"))
    freq = rec.frequency(("G", "G"), (+1, +1))
    se = math.sqrt(p * (1.0 - p) / n_gg)
    violations = (rec.counts[("F", "F")][(+1, +1)]
                  + rec.counts[("F", "G")][(-1, +1)]
                  + rec.counts[("G", "F")][(+1, -1)])
    elapsed = time.perf_counter() - t0
    ok = abs(freq - p) < 5 * se and violations == 0 and elapsed < 60.0
    _verdict(3, ok, f"freq {freq:.6f} vs {p:.6f} (5se {5 * se:.6f}), "
                    f"{violations} forbidden counts, {elapsed:.1f}s")


def test_criterion_04_reduced_state_spectrum():
    rho = d.partial_trace(d.make_eta(), keep=(1, 2, 3, 4))
    evals, evecs = np.linalg.eigh(rho.matrix)
    lam_plus = (7.0 + math.sqrt(13.0)) / 14.0
    lam_minus = (7.0 - math.sqrt(13.0)) / 14.0
    e_err = max(abs(evals[-1] - lam_plus), abs(evals[-2] - lam_minus),
                abs(evals[:-2]).max())
    phi0, phi1 = d.make_phi0().amplitudes, d.make_phi1().amplitudes
    v_err = 0.0
    for idx, sign in ((-1, +1.0), (-2, -1.0)):
        r13 = math.sqrt(13.0)
        chi = ((1.0 + sign * r13) * phi0 + 2.0 * math.sqrt(3.0) * phi1)
        chi /= math.sqrt(26.0 + sign * 2.0 * r13)
        v = evecs[:, idx]
        v = v * np.exp(-1j * np.angle(np.vdot(chi, v)))
        v_err = max(v_err, np.linalg.norm(v - chi))
    ok = e_err < 1e-10 and v_err < 1e-8
    _verdict(4, ok, f"eigenvalue error {e_err:.3e}, eigenvector error {v_err:.3e}")


def test_criterion_05_decoherence_immunity():
    channel = d.CollectiveChannel(n_samples=1000)
    protected = [
        ("phi0", d.make_phi0(), channel),
        ("phi1", d.make_phi1(), channel),
        ("rho", d.partial_trace(d.make_eta(), keep=(1, 2, 3, 4)), channel),
        ("eta", d.make_eta(), d.CollectiveChannel(n_samples=1000, scope="per-wing")),
    ]
    worst = 1.0
    for i, (_, state, chan) in enumerate(protected):
        worst = min(worst, d.fidelity_samples(state, chan, seed=i).min())
    ref = d.fidelity_samples(d.basis_state("0101"), channel, seed=99)
    ok = worst > 1.0 - 1e-9 and ref.min() < 0.99
    _verdict(5, ok, f"protected min fidelity {worst:.12f}, "
                    f"reference min {ref.min():.3f} mean {ref.mean():.3f}")


def test_criterion_06_distinguishability_scan():
    t0 = time.perf_counter()
    found = d.scan_distinguishable_omegas(resolution=200)
    offsets = [abs(w - k * math.pi / 6) for k, w in enumerate(sorted(found))]
    set_ok = len(found) == 6 and max(offsets) < 1e-3
    floor_pi5 = d.grid_min_support_overlap(math.pi / 5, resolution=200)
    floor_pi4 = d.grid_min_support_overlap(math.pi / 4, resolution=200)
    elapsed = time.perf_counter() - t0
    ok = set_ok and floor_pi5 > 1e-3 and floor_pi4 > 1e-3 and elapsed < 300.0
    _verdict(6, ok, f"{len(found)} angles, max offset "
                    f"{max(offsets) if offsets else float('nan'):.2e}, floors "
                    f"{floor_pi5:.4f}/{floor_pi4:.4f}, {elapsed:.0f}s")


def test_criterion_07_measurement_protocol_split():
    four = {0b0101, 0b0110, 0b1001, 0b1010}
    p0 = wing_distribution(d.make_phi0(), "F")
    p1 = wing_distribution(d.make_phi1(), "F")
    exact_ok = all(abs(p0[w] - (0.25 if w in four else 0.0)) < 1e-10
                   for w in range(16))
    exact_ok &= all(abs(p1[w] - (0.0 if w in four else 1.0 / 12.0)) < 1e-10
                    for w in range(16))
    rng = np.random.default_rng(0)
    shots = 10 ** 5
    sampled_ok = True
    twelve = set(range(16)) - four
    for probs, support, expect in ((p0, four, 0.25), (p1, twelve, 1.0 / 12.0)):
        counts = rng.multinomial(shots, probs)
        sigma = math.sqrt(expect * (1.0 - expect) / shots)
        for w in support:
            sampled_ok &= abs(counts[w] / shots - expect) < 5 * sigma
    ok = exact_ok and sampled_ok
    _verdict(7, ok, f"exact split {'ok' if exact_ok else 'bad'}, "
                    f"sampled at {shots} shots {'ok' if sampled_ok else 'bad'}")


def test_criterion_08_optimality():
    res_c = d.optimize_constrained(n_starts=64, seed=0)
    c = np.array(res_c.instance.amplitudes)
    c *= np.exp(-1j * np.angle(c[0]))
    target = np.array([1.0, math.sqrt(3), math.sqrt(3), 0.0]) / math.sqrt(7)
    state_err = float(np.linalg.norm(c - target))
    res_f = d.optimize_unconstrained_measurements(n_starts=64, seed=1)
    ok = (abs(res_c.probability - 9.0 / 112.0) < 1e-9
          and state_err < 1e-6
          and abs(res_f.probability - 0.0901699437) < 1e-6)
    _verdict(8, ok, f"constrained {res_c.probability:.12f} (state err "
                    f"{state_err:.2e}), free {res_f.probability:.12f}")


def test_criterion_09_lhv_infeasibility():
    scenario = d.standard_scenario()
    verdict = d.lhv_feasibility(scenario)
    refuted = isinstance(verdict, d.Infeasible) and bool(verdict.certificate)
    # the Farkas weights score the required probabilities, normalisation last
    rhs = [con.probability for con in scenario] + [1]
    score = sum(z * p for z, p in zip(verdict.farkas, rhs)) if refuted else None
    control = d.lhv_feasibility(d.standard_scenario(p_joint=Fraction(0)))
    ok = (refuted and score == Fraction(-9, 112)
          and verdict.certificate.endswith(f"score {score}")
          and isinstance(control, d.Feasible))
    _verdict(9, ok, f"exact refutation with certificate, score {score}, "
                    "control feasible")


def test_criterion_10_report_determinism():
    runner = CliRunner()
    outputs = []
    for _ in range(2):
        result = runner.invoke(cli_main, ["report-all", "--format", "json",
                                          "--seed", "7"])
        assert result.exit_code == 0, result.output
        outputs.append(result.output)
    identical = outputs[0] == outputs[1]
    # a section command at the same seed reproduces report-all's section,
    # worst-sample details included: rendered from the report's JSON, the
    # section must equal the command's output byte for byte
    sections = {s["name"]: s for s in json.loads(outputs[0])["sections"]}
    reproduced = []
    # (the last three sections draw nothing, so their commands print no seed)
    for cmd, name, seed in (
            (["verify-correlations", "--seed", "7"], "correlation identities", 7),
            (["verify-decoherence", "--seed", "7"],
             "collective decoherence immunity", 7),
            (["verify-distinguish"], "distinguishable-pair scan", None),
            (["optimize-hardy"], "Hardy optimization", None),
            (["lhv-check"], "local model feasibility", None)):
        result = runner.invoke(cli_main, cmd)
        checks = tuple(Check(**c) for c in sections[name]["checks"])
        mini = Report(title=f"dfsbell: {name}", seed=seed, config={},
                      sections=(Section(name, checks),))
        reproduced.append(result.output == render_text(mini))
    # every check names one of the four sources the schema admits; a
    # maximum over random samples is an estimate, not a closed form
    schema = json.loads(
        resources.files("dfsbell").joinpath("report_schema.json").read_text())
    labels = set(schema["properties"]["sections"]["items"]["properties"]
                 ["checks"]["items"]["properties"]["source"]["enum"])
    sources = {c["name"]: c["source"] for s in sections.values() for c in s["checks"]}
    labelled = (set(sources.values()) <= labels
                and sources["null outcome probability"] == "sampled estimate"
                and sources["alignment-free word-pair distribution"] == "sampled estimate")
    ok = identical and all(reproduced) and labelled
    _verdict(10, ok, f"two runs, {len(outputs[0])} bytes each, "
                     f"{'identical' if identical else 'differ'}; "
                     f"section commands reproduce their sections: {reproduced}; "
                     f"sources {sorted(set(sources.values()))}")
