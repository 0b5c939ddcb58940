"""dfsbell benchmark: closed-loop, single-client workloads, one process each.

    python3 perfbench/run.py --workload scan --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --second-seed 11

Run from the repository root; the program is imported from src/.  Each
timed iteration runs in a fresh interpreter (perfbench/workloads.py), with
the BLAS and OpenMP thread pools capped at the CPUs it may use (nproc), and
counts as a success only if every check of its outputs passes.

--trace 0 repeats iterations until --seconds have passed and reports the
end-to-end metrics as medians over them.  --trace 1 runs one traced
iteration followed by the layer pass (report-all's sections, then per-call
probes of every module); the per-layer metrics are derived from its spans,
which are written to perfbench/out/.  Every metric and every check verdict
is printed by name; the last line is one JSON object with correct,
attempted, failed and metrics.  Exit status: 0 all checks passed, 1 a check failed or an
iteration crashed, 2 usage error or no dfsbell sources.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# setup_s, and wall_ref on the spec.SCALED_WALL workloads, are seconds at
# the defining machine's speed: scaled by spec.NOMINAL_REF_S over a
# reference loop timed in the same process next to them
# (workloads.reference_block).  On a shared machine whose speed drifts by
# tens of percent over minutes, they repeat where raw seconds do not.  Raw
# wall_s and set-up seconds are printed too.
E2E_UNITS = {"setup_s": "s", "wall_ref": "s", "peak_rss_mb": "MB"}

# Per-layer metrics, all derived from the traced child's spans.
# Time per unit of work: metric, unit, span name, work count, scale.
RATES = (
    ("qcore.haar_su2.us_per_draw", "us", "qcore.haar_su2", "calls", 1e6),
    ("qcore.apply_collective.us_per_call", "us", "qcore.apply_collective",
     "calls", 1e6),
    ("qcore.partial_trace.ms", "ms", "qcore.partial_trace", "calls", 1e3),
    ("dfs_states.make_eta.ms", "ms", "dfs_states.make_eta", "calls", 1e3),
    ("dfs_states.Observable.rotated.us_per_call", "us",
     "dfs_states.Observable.rotated", "calls", 1e6),
    ("correlations.joint_distribution.fixed.us_per_call", "us",
     "correlations.joint_distribution.fixed", "calls", 1e6),
    ("correlations.joint_distribution.rotated.us_per_call", "us",
     "correlations.joint_distribution.rotated", "calls", 1e6),
    ("correlations.verify_correlation_suite.ms_per_tuple", "ms",
     "correlations.verify_correlation_suite", "rotation_tuples", 1e3),
    ("localmeas.run_experiment.fresh.ns_per_round", "ns",
     "localmeas.run_experiment.fresh", "rounds", 1e9),
    ("localmeas.run_experiment.fixed.ns_per_round", "ns",
     "localmeas.run_experiment.fixed", "rounds", 1e9),
    ("distinguish.scan_distinguishable_omegas.ns_per_theta_tuple", "ns",
     "distinguish.scan_distinguishable_omegas", "theta_tuples", 1e9),
    ("distinguish.grid_min_support_overlap.ns_per_theta_tuple", "ns",
     "distinguish.grid_min_support_overlap", "theta_tuples", 1e9),
    ("distinguish.find_distinguishing_thetas.ms", "ms",
     "distinguish.find_distinguishing_thetas", "calls", 1e3),
    ("hardy.optimize_constrained.ms_per_start", "ms",
     "hardy.optimize_constrained", "starts", 1e3),
    ("hardy.optimize_unconstrained_measurements.ms_per_start", "ms",
     "hardy.optimize_unconstrained_measurements", "starts", 1e3),
    ("hardy.lhv_feasibility.ms", "ms", "hardy.lhv_feasibility", "calls", 1e3),
    ("decohere.fidelity_samples.pure_global.us_per_draw", "us",
     "decohere.fidelity_samples.pure_global", "draws", 1e6),
    ("decohere.fidelity_samples.per_wing.us_per_draw", "us",
     "decohere.fidelity_samples.per_wing", "draws", 1e6),
    ("decohere.fidelity_samples.density.us_per_draw", "us",
     "decohere.fidelity_samples.density", "draws", 1e6),
    ("report.to_json.ms", "ms", "report.to_json", "calls", 1e3),
    ("report.render_text.ms", "ms", "report.render_text", "calls", 1e3),
    ("cli.lhv_check.ms", "ms", "cli.lhv_check", "calls", 1e3),
)
# Calls the program itself makes, counted by wrappers in the traced child
# (workloads.count_program_calls): metric, function.
CALLS = (
    ("qcore.haar_su2.draws", "haar_su2"),
    ("qcore.apply_collective.calls", "apply_collective"),
)
# Work done, from span work counts: metric, span-name prefix, work count.
COUNTS = (
    ("correlations.rotation_tuples", "correlations.", "rotation_tuples"),
    ("localmeas.rounds.fresh", "localmeas.run_experiment.fresh", "rounds"),
    ("localmeas.rounds.fixed", "localmeas.run_experiment.fixed", "rounds"),
    ("distinguish.theta_tuples", "distinguish.", "theta_tuples"),
    ("distinguish.omegas_found", "distinguish.", "omegas_found"),
    ("decohere.draws", "decohere.", "draws"),
)
# Useful over attempted: metric, span-name prefix (feasible / starts).
RATIOS = (
    ("hardy.constrained.feasible_ratio", "hardy.optimize_constrained"),
    ("hardy.free.feasible_ratio", "hardy.optimize_unconstrained"),
)
PER_LAYER_UNITS = {
    **{name: unit for name, unit, *_ in RATES},
    **{name: "count" for name, _ in CALLS},
    **{name: "count" for name, *_ in COUNTS},
    **{name: "ratio" for name, _ in RATIOS},
    **{f"cli.section.{s}_s": "s" for s in spec.SECTIONS},
    **{f"{m}.self_s": "s" for m in tracing.MODULES},
    "trace.overhead_s": "s",
}


def per_layer_metrics(traced):
    """Every per-layer metric from a traced child's result.  trace.overhead_s
    is what tracing added: spans recorded times the cost of one span, plus
    counted calls times the cost of the counting wrapper, both measured in
    that child."""
    spans, calls = traced["spans"], traced["counted_calls"]
    metrics = {name: tracing.per_unit(spans, span, key, scale)
               for name, _, span, key, scale in RATES}
    metrics.update({name: calls[fn] for name, fn in CALLS})
    metrics.update({name: tracing.work_sum(spans, prefix, key)
                    for name, prefix, key in COUNTS})
    metrics.update({name: tracing.work_sum(spans, prefix, "feasible")
                    / tracing.work_sum(spans, prefix, "starts")
                    for name, prefix in RATIOS})
    metrics.update({f"cli.section.{s}_s": tracing.totals(spans, f"cli.section.{s}")[0]
                    for s in spec.SECTIONS})
    metrics.update({f"{m}.self_s": t
                    for m, t in tracing.layer_self_times(spans).items()})
    metrics["trace.overhead_s"] = (len(spans) * traced["span_cost_s"]
                                   + sum(calls.values()) * traced["call_cost_s"])
    return metrics


def nproc():
    """CPUs this process may run on: the cap for BLAS and OpenMP threads."""
    return len(os.sched_getaffinity(0))


def child_env():
    """This environment with dfsbell on the path and thread pools capped."""
    env = dict(os.environ)
    cap = nproc()
    for var in THREAD_VARS:
        current = env.get(var, "")
        if not (current.isdigit() and 0 < int(current) < cap):
            env[var] = str(cap)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def child_cmd(mode, workload, seed):
    return [sys.executable, str(HERE / "workloads.py"), mode, workload, str(seed)]


def run_child(cmd, expected, env=None):
    """Run one child interpreter and collect its result.

    The parent's CLOCK_MONOTONIC reading is appended to ``cmd`` so that the
    child's set-up time includes interpreter start.  A child that exits
    non-zero, times out or prints no result is a crash: every check in
    ``expected`` counts as failed.  An expected check the child did not
    report also counts as failed.
    """
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    error = None
    try:
        proc = subprocess.run(cmd + [repr(spawned)], env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            error = f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
        else:
            result = json.loads(lines[-1])
    except subprocess.TimeoutExpired:
        error = f"timed out after {CHILD_TIMEOUT_S} s"
    except json.JSONDecodeError as exc:
        error = f"unreadable result: {exc}"
    if error is not None:
        return {"crashed": True, "error": error,
                "checks": [{"name": n, "passed": False, "value": "crashed"}
                           for n in expected]}
    reported = {c["name"] for c in result.get("checks", ())}
    result.setdefault("checks", []).extend(
        {"name": n, "passed": False, "value": "not reported"}
        for n in expected if n not in reported)
    result["crashed"] = False
    return result


def passed(it):
    return not it["crashed"] and all(c["passed"] for c in it["checks"])


def median_of(iterations, key):
    values = [it[key] for it in iterations]
    return statistics.median(values) if values else None


def run_untraced(workload, seed, seconds, env):
    """Iterations until `seconds` have passed, plus set-up-only children
    until there are MIN_SETUP_SAMPLES set-up times."""
    iterations = []
    start = time.monotonic()
    while True:
        it = run_child(child_cmd("run", workload, seed), spec.CHECKS[workload], env)
        iterations.append(it)
        if it["crashed"] or time.monotonic() - start >= seconds:
            break
    setups = [it for it in iterations if not it["crashed"]]
    while setups and len(setups) < MIN_SETUP_SAMPLES:
        it = run_child(child_cmd("setup", workload, seed), spec.SETUP_CHECKS, env)
        iterations.append(it)
        if it["crashed"]:
            break
        setups.append(it)
    good = [it for it in iterations if "wall_s" in it and passed(it)]
    metrics = {"setup_s": median_of(setups, "setup_s"),
               "wall_ref": median_of(good, "wall_ref"),
               "peak_rss_mb": median_of(good, "peak_rss_mb")}
    samples = {"setup_s": len(setups), "wall_ref": len(good),
               "peak_rss_mb": len(good)}
    raw = {"setup_raw_s": median_of(setups, "setup_raw_s"),
           "wall_s": median_of(good, "wall_s")}
    return iterations, metrics, samples, raw


def run_traced(workload, seed, env):
    """One traced iteration and the layer pass; per-layer metrics from spans."""
    traced = run_child(child_cmd("traced", workload, seed),
                       spec.CHECKS[workload]
                       + spec.checks_of(spec.layer_pass_rest(workload)), env)
    iterations = [traced]
    metrics = dict.fromkeys(PER_LAYER_UNITS)
    if passed(traced):
        metrics = per_layer_metrics(traced)
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(
            {"workload": workload, "seed": seed, "spans": traced["spans"],
             "counted_calls": traced["counted_calls"], "metrics": metrics},
            indent=1))
    return iterations, metrics, dict.fromkeys(metrics, 1), {}


def run_one(workload, seed, seconds, trace, env):
    """Print every check verdict and metric of one (workload, seed) run."""
    if trace:
        iterations, metrics, samples, raw = run_traced(workload, seed, env)
        units = PER_LAYER_UNITS
    else:
        iterations, metrics, samples, raw = run_untraced(
            workload, seed, seconds, env)
        units = E2E_UNITS
    tag = f"{workload} seed={seed}"
    for i, it in enumerate(iterations, 1):
        if it["crashed"]:
            print(f"crash {tag} iteration={i}: {it['error']}")
        else:
            kind = "iteration" if "wall_s" in it else "setup"
            print(f"{kind} {tag} iteration={i}: " + " ".join(
                f"{k}={it[k]!r}" for k in ("setup_s", "setup_raw_s", "wall_s",
                                           "ref_s", "wall_ref", "peak_rss_mb")
                if k in it))
        for c in it["checks"]:
            print(f"check {'PASS' if c['passed'] else 'FAIL'} {tag} iteration={i}: "
                  f"{c['name']} ({c['value']})")
    attempted = sum(len(it["checks"]) for it in iterations)
    failed = sum(not c["passed"] for it in iterations for c in it["checks"])
    for name, value in metrics.items():
        print(f"metric {tag} {name} = {value!r} {units[name]} "
              f"(median of {samples[name]})")
    print(f"metric {tag} check_fail_ratio = {failed / attempted!r} ratio "
          f"({failed} of {attempted} checks)")
    if raw:
        print(f"metric {tag} setup_raw_s = {raw['setup_raw_s']!r} s "
              f"(median of {samples['setup_s']})")
        print(f"metric {tag} wall_s = {raw['wall_s']!r} s "
              f"(median of {samples['wall_ref']})")
        rounds = {"simulate": ("sim_fresh_rounds_per_s", spec.FRESH_ROUNDS),
                  "simulate-fixed": ("sim_fixed_rounds_per_s", spec.FIXED_ROUNDS)}
        if workload in rounds and raw["wall_s"]:
            name, n = rounds[workload]
            print(f"metric {tag} {name} = {n / raw['wall_s']!r} 1/s "
                  f"({n} rounds / median wall_s)")
    return attempted, failed, {n: {"value": v, "unit": units[n]}
                               for n, v in metrics.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="one of %s, a comma-separated list, or all"
                             % ", ".join(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--second-seed", type=int, default=None,
                        help="also run every chosen workload on this seed")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = spec.WORKLOADS if args.workload == "all" else args.workload.split(",")
    unknown = [w for w in names if w not in spec.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}")
    seeds = [s for s in (args.seed, args.second_seed) if s is not None]
    if any(s < 0 for s in seeds):
        parser.error("seeds must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return names, seeds, args


def main(argv=None):
    names, seeds, args = parse_args(argv)
    if not (SRC / "dfsbell" / "__init__.py").is_file():
        print(f"error: no dfsbell sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    # Untimed: fills bytecode caches and reports the machine.
    warm = run_child(child_cmd("setup", names[0], seeds[0]), (), env)
    for key, value in warm.get("facts", {}).items():
        print(f"fact {key} = {value}")
    runs = [(w, s) for s in seeds for w in names]
    attempted = failed = 0
    metrics = {}
    for workload, seed in runs:
        a, f, m = run_one(workload, seed, args.seconds, args.trace, env)
        attempted, failed = attempted + a, failed + f
        prefix = "" if len(runs) == 1 else f"{workload}/{seed}/"
        metrics.update({prefix + n: v for n, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
