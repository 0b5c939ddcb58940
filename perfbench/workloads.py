"""Child process of run.py: set-up, one workload iteration, its checks.

    python3 perfbench/workloads.py MODE WORKLOAD SEED SPAWNED

MODE is ``setup`` (set-up only), ``run`` (one untraced iteration) or
``traced`` (one traced iteration, then the rest of the layer pass, see
spec.LAYER_PASS).  SPAWNED is
the CLOCK_MONOTONIC reading the parent took just before starting this
interpreter, so set-up time includes interpreter start.  Needs dfsbell on
PYTHONPATH.  Prints one JSON object as its last line.

Every call into dfsbell is a public function, and every output is checked
against a closed form (spec.CLOSED_FORMS, 9/112, kpi/6) or an exact
verdict; the check names are fixed in spec.py.
"""

import time

import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
from fractions import Fraction

import numpy as np
import scipy

from dfsbell import (cli, correlations, decohere, dfs_states, distinguish,
                     hardy, localmeas, qcore, report)

import spec
from tracing import NullTracer, Tracer

P_GG = 9.0 / 112.0
FORBIDDEN = (("F", "F", +1, +1), ("F", "G", -1, +1), ("G", "F", +1, -1))


def build_states():
    """The states and observables every workload starts from (the product
    measurement protocols are built when localmeas is imported)."""
    eta = dfs_states.make_eta()
    return {
        "eta": eta,
        "reduced": qcore.partial_trace(eta, keep=(1, 2, 3, 4)),
        "phi0": dfs_states.make_phi0(),
        "f": dfs_states.make_f(),
        "g": dfs_states.make_g(),
    }


def subseed(root, index):
    """Substream `index` of the root seed, as report-all derives it."""
    return int(np.random.SeedSequence((root, index)).generate_state(
        1, dtype=np.uint64)[0])


def verdict(name, passed, value):
    return {"name": name, "passed": bool(passed), "value": str(value)}


# ---------------------------------------------------------------------------
# Calls and their checks
# ---------------------------------------------------------------------------

def simulate(seed, tr, fresh, rounds):
    """run_experiment; the span's round count is the rounds the record tallies."""
    kind = "fresh" if fresh else "fixed"
    with tr.span(f"localmeas.run_experiment.{kind}") as work:
        rec = localmeas.run_experiment(
            rounds, settings_policy="random",
            rotations_policy="fresh" if fresh else "identity",
            seed=subseed(seed, spec.SUB_SIMULATION))
        work["rounds"] = sum(rec.setting_total(pair) for pair in rec.counts)
    return rec


def simulation_checks(rec, prefix):
    checks = []
    for (sa, sb, oa, ob), name in zip(FORBIDDEN, spec.SIM_CHECKS):
        count = rec.counts[(sa, sb)][(oa, ob)]
        checks.append(verdict(prefix + name, count == 0, count))
    n_gg = rec.setting_total(("G", "G"))
    sigma = math.sqrt(P_GG * (1.0 - P_GG) / max(n_gg, 1))
    freq = rec.frequency(("G", "G"), (+1, +1))
    checks.append(verdict(prefix + spec.SIM_CHECKS[3],
                          abs(freq - P_GG) <= 5.0 * sigma,
                          f"{freq!r} over {n_gg} rounds"))
    return checks


def distinguish_call(seed, tr):
    """report-all's distinguish section: the r=200 scan, two exclusion grids."""
    r = spec.SCAN_RESOLUTION
    with tr.span("distinguish.scan_distinguishable_omegas",
                 theta_tuples=r ** 3) as work:
        found = distinguish.scan_distinguishable_omegas(
            resolution=r, refine_tol=spec.SCAN_REFINE_TOL)
        work["omegas_found"] = len(found)
    overlaps = []
    for _, omega in spec.EXCLUDED_OMEGAS:
        r = spec.EXCLUSION_RESOLUTION
        with tr.span("distinguish.grid_min_support_overlap",
                     theta_tuples=r ** 3):
            overlaps.append(distinguish.grid_min_support_overlap(
                omega, resolution=r))
    worst = math.inf
    if len(found) == 6:
        worst = max(abs(w - k * math.pi / 6) for k, w in enumerate(sorted(found)))
    checks = [verdict(spec.DISTINGUISH_CHECKS[0], len(found) == 6, len(found)),
              verdict(spec.DISTINGUISH_CHECKS[1], worst <= 1e-6, worst)]
    for name, value in zip(spec.DISTINGUISH_CHECKS[2:], overlaps):
        checks.append(verdict(name, value > 1e-3, value))
    return checks


def find_call(seed, tr):
    k = int(np.random.default_rng(seed).integers(6))
    omega = k * math.pi / 6
    r = spec.FIND_RESOLUTION
    with tr.span("distinguish.find_distinguishing_thetas",
                 theta_tuples=r ** 3, calls=1):
        thetas = distinguish.find_distinguishing_thetas(omega, resolution=r)
    ok = thetas is not None and distinguish.is_distinguishing(
        distinguish.DistinguishInstance(omega, thetas))
    return [verdict(spec.FIND_CHECKS[0], ok, f"k={k} thetas={thetas}")]


def correlation_call(seed, tr):
    n = spec.CORRELATION_TUPLES
    with tr.span("correlations.verify_correlation_suite", rotation_tuples=n):
        suite = correlations.verify_correlation_suite(
            n_rotation_samples=n, seed=subseed(seed, spec.SUB_CORRELATIONS))
    checks = []
    names = iter(spec.CORRELATION_CHECKS)
    for key, expected in spec.CLOSED_FORMS.items():
        value = suite.identity_values[key]
        checks.append(verdict(next(names), abs(value - expected) <= 1e-9, value))
        drift = suite.max_deviation[key]
        checks.append(verdict(next(names), drift <= 1e-9, drift))
    return checks


def decoherence_call(seed, tr):
    n = spec.DECOHERENCE_SAMPLES
    with tr.span("decohere.immunity_report") as work:
        rep = decohere.immunity_report(
            n_samples=n, seed=subseed(seed, spec.SUB_DECOHERENCE))
        work["draws"] = n * len(rep.entries)
    protected = [e.min_fidelity for e in rep.entries
                 if e.name.startswith("sector")]
    references = [e.min_fidelity for e in rep.entries
                  if not e.name.startswith("sector")]
    return [
        verdict(spec.DECOHERENCE_CHECKS[0],
                len(protected) == 6 and min(protected) > 1.0 - 1e-9,
                f"{len(protected)} states, min {min(protected, default=None)!r}"),
        verdict(spec.DECOHERENCE_CHECKS[1],
                len(references) == 2 and max(references) < 0.99,
                f"{len(references)} states, max {max(references, default=None)!r}"),
    ]


def hardy_calls(seed, tr):
    n = spec.HARDY_STARTS
    results = []
    for name, solve, index, target in (
            ("optimize_constrained", hardy.optimize_constrained,
             spec.SUB_HARDY_CONSTRAINED, P_GG),
            ("optimize_unconstrained_measurements",
             hardy.optimize_unconstrained_measurements,
             spec.SUB_HARDY_FREE, spec.FREE_MAXIMUM)):
        with tr.span(f"hardy.{name}", starts=n) as work:
            res = solve(n_starts=n, seed=subseed(seed, index))
            work["feasible"] = res.n_feasible
        results.append((res, target))
    checks = []
    names = iter(spec.HARDY_CHECKS)
    for res, target in results:
        checks.append(verdict(next(names),
                              abs(res.probability - target) <= 1e-6,
                              res.probability))
        checks.append(verdict(next(names), res.max_residual <= 1e-9,
                              res.max_residual))
    return checks


def lhv_calls(seed, tr):
    with tr.span("hardy.lhv_feasibility", calls=2):
        refuted = hardy.lhv_feasibility(hardy.standard_scenario())
        control = hardy.lhv_feasibility(
            hardy.standard_scenario(p_joint=Fraction(0)))
    return [
        verdict(spec.LHV_CHECKS[0], isinstance(refuted, hardy.Infeasible),
                type(refuted).__name__),
        verdict(spec.LHV_CHECKS[1], isinstance(control, hardy.Feasible),
                type(control).__name__),
    ]


def run_cli(args):
    """Exit code of the dfsbell command line, run in this process."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main.main(args=args, prog_name="dfsbell", standalone_mode=False)
        except SystemExit as exc:
            return exc.code
    return 0


def probes(seed, tr, states, checks):
    """Per-call timings of the public calls that the sections do not time on
    their own.  A probe loop is one span over `calls` calls, so that tracing
    adds nothing per call.  The probes call the unwrapped functions, so
    count_program_calls counts only the calls the program makes."""
    eta, f, g = states["eta"], states["f"], states["g"]
    haar_su2, apply_collective = ORIGINAL["haar_su2"], ORIGINAL["apply_collective"]
    rng = np.random.default_rng(subseed(seed, 5))
    n = 2000
    with tr.span("qcore.haar_su2", calls=n):
        us = [haar_su2(rng) for _ in range(n)]
    n = 300
    with tr.span("qcore.apply_collective", calls=n):
        for u in us[:n]:
            apply_collective(eta, u, wing="alice")
    with tr.span("qcore.partial_trace", calls=20):
        for _ in range(20):
            qcore.partial_trace(eta, keep=(1, 2, 3, 4))
    with tr.span("dfs_states.make_eta", calls=20):
        for _ in range(20):
            dfs_states.make_eta()
    with tr.span("dfs_states.Observable.rotated", calls=n):
        for u in us[:n]:
            g.rotated(u)
    fixed = (correlations.Setting(f), correlations.Setting(g))
    with tr.span("correlations.joint_distribution.fixed", calls=n):
        for _ in range(n):
            correlations.joint_distribution(eta, *fixed)
    rotated = [(correlations.Setting(f, correlations.LocalRotation(a, "alice")),
                correlations.Setting(g, correlations.LocalRotation(b, "bob")))
               for a, b in zip(us[:n], us[n:2 * n])]
    with tr.span("correlations.joint_distribution.rotated", calls=n):
        for a, b in rotated:
            correlations.joint_distribution(eta, a, b)
    for kind, state, scope in (("pure_global", states["phi0"], "global"),
                               ("per_wing", eta, "per-wing"),
                               ("density", states["reduced"], "global")):
        channel = decohere.CollectiveChannel(n_samples=n, scope=scope)
        with tr.span(f"decohere.fidelity_samples.{kind}", draws=n):
            decohere.fidelity_samples(state, channel, seed=subseed(seed, 6))

    rep = report.Report(
        title="perfbench layer pass", seed=seed, config={},
        sections=(report.Section("checks so far", tuple(
            report.Check(name=c["name"], passed=c["passed"], detail=c["value"])
            for c in checks)),))
    n = 100
    with tr.span("report.to_json", calls=n):
        for _ in range(n):
            report.to_json(rep)
    with tr.span("report.render_text", calls=n):
        for _ in range(n):
            report.render_text(rep)
    n = 20
    with tr.span("cli.lhv_check", calls=n):
        codes = [run_cli(["lhv-check"]) for _ in range(n)]
    return [verdict(spec.PIECE_CHECKS["probes"][0], all(c == 0 for c in codes),
                    codes[0])]


def fresh_call(seed, tr):
    return simulation_checks(simulate(seed, tr, True, spec.FRESH_ROUNDS),
                             "fresh frames: ")


def fixed_call(seed, tr):
    return simulation_checks(simulate(seed, tr, False, spec.FIXED_ROUNDS),
                             "fixed frames: ")


def report_simulation_call(seed, tr):
    return simulation_checks(simulate(seed, tr, True, spec.REPORT_SIM_ROUNDS),
                             "report-all simulation: ")


# Each piece returns its verdicts, named as in spec.PIECE_CHECKS.  Pieces
# named in spec.SECTIONS are report-all's sections: the same calls, sizes
# and substreams as report-all with root seed SEED, under a cli.section span.
PIECES = {
    "fresh": fresh_call,
    "fixed": fixed_call,
    "correlations": correlation_call,
    "simulation": report_simulation_call,
    "decoherence": decoherence_call,
    "distinguish": distinguish_call,
    "find": find_call,
    "hardy": hardy_calls,
    "lhv": lhv_calls,
}


def run_pieces(names, seed, tr, states, checks):
    for name in names:
        if name == "probes":
            checks += probes(seed, tr, states, checks)
        elif name in spec.SECTIONS:
            with tr.span(f"cli.section.{name}"):
                checks += PIECES[name](seed, tr)
        else:
            checks += PIECES[name](seed, tr)


def reference_block():
    """Median wall time of spec.REFERENCE_CHUNKS chunks of a fixed loop of
    small complex matrix products from Python, which does not use dfsbell.

    Timed right after set-up, and after every piece of an iteration of the
    spec.SCALED_WALL workloads, it tracks how fast this shared machine runs
    that kind of work at that moment; the median ignores a burst that hits
    one chunk.  Its arrays take 4 KB, so it leaves peak_rss_mb to dfsbell's
    work."""
    m0 = np.random.default_rng(0).normal(size=(16, 32)).view(complex)
    times = []
    for _ in range(spec.REFERENCE_CHUNKS):
        t0 = time.perf_counter()
        m = m0
        for _ in range(2000):
            m = m @ m.conj().T
            m /= np.abs(m).max()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# The program's functions as imported, before count_program_calls wraps them.
ORIGINAL = {"haar_su2": qcore.haar_su2, "apply_collective": qcore.apply_collective}


def count_program_calls():
    """Replace haar_su2 and apply_collective, in every dfsbell module that
    imported them, by wrappers that count calls.  Returns the counts, which
    keep growing as the program calls them."""
    counts = dict.fromkeys(ORIGINAL, 0)
    for name, original in ORIGINAL.items():
        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        for module_name, module in list(sys.modules.items()):
            if (module_name.split(".")[0] == "dfsbell"
                    and getattr(module, name, None) is original):
                setattr(module, name, counted)
    return counts


def tracing_cost(counts):
    """Seconds one span costs, and one counted call beyond a plain call."""
    n = 20000
    tr = Tracer()
    t0 = time.perf_counter()
    for _ in range(n):
        with tr.span("x", calls=1):
            pass
    per_span = (time.perf_counter() - t0) / n

    def plain():
        return None

    def counted():
        counts["haar_su2"] += 0
        return plain()
    t0 = time.perf_counter()
    for _ in range(n):
        plain()
    t1 = time.perf_counter()
    for _ in range(n):
        counted()
    return per_span, max((time.perf_counter() - t1) - (t1 - t0), 0.0) / n


def machine_facts():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "thread_cap": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv):
    mode, workload, seed, spawned = argv[1], argv[2], int(argv[3]), float(argv[4])
    states = build_states()
    setup_raw_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spawned
    refs = [reference_block()]
    # Set-up seconds at the reference speed spec.NOMINAL_REF_S, see spec.py.
    result = {"setup_raw_s": setup_raw_s,
              "setup_s": setup_raw_s * spec.NOMINAL_REF_S / refs[0]}
    if mode == "setup":
        result["facts"] = machine_facts()
        result["checks"] = [verdict(spec.SETUP_CHECKS[0], True, "")]
    else:
        traced = mode == "traced"
        tr = Tracer() if traced else NullTracer()
        if traced:
            counts = count_program_calls()
        scaled = workload in spec.SCALED_WALL
        checks, times = [], []
        with tr.span(f"workload.{workload}"):
            for piece in spec.WORKLOAD_PIECES[workload]:
                t0 = time.perf_counter()
                run_pieces((piece,), seed, tr, states, checks)
                times.append(time.perf_counter() - t0)
                if scaled:
                    refs.append(reference_block())
        result["wall_s"] = sum(times)
        # Each piece's seconds scaled by NOMINAL_REF_S over the mean of the
        # reference blocks timed just before and just after it.
        result["wall_ref"] = sum(
            t * spec.NOMINAL_REF_S / ((before + after) / 2)
            for t, before, after in zip(times, refs, refs[1:])
        ) if scaled else result["wall_s"]
        result["ref_s"] = statistics.median(refs)
        if traced:
            with tr.span("layerpass"):
                run_pieces(spec.layer_pass_rest(workload), seed, tr, states, checks)
            result["spans"] = tr.spans
            result["counted_calls"] = dict(counts)
            result["span_cost_s"], result["call_cost_s"] = tracing_cost(counts)
        result["checks"] = checks
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
