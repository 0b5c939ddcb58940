"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(id_, parent, name, start, end, **work):
    return {"id": id_, "parent": parent, "name": name, "start": start,
            "end": end, "work": work}


def _synthetic_spans():
    """One span of every name the per-layer derivations read."""
    names = {
        "qcore.haar_su2": {"calls": 10},
        "qcore.apply_collective": {"calls": 10},
        "qcore.partial_trace": {"calls": 10},
        "dfs_states.make_eta": {"calls": 10},
        "dfs_states.Observable.rotated": {"calls": 10},
        "correlations.joint_distribution.fixed": {"calls": 10},
        "correlations.joint_distribution.rotated": {"calls": 10},
        "correlations.verify_correlation_suite": {"rotation_tuples": 100},
        "localmeas.run_experiment.fresh": {"rounds": 100},
        "localmeas.run_experiment.fixed": {"rounds": 100},
        "distinguish.scan_distinguishable_omegas": {"theta_tuples": 8, "omegas_found": 6},
        "distinguish.grid_min_support_overlap": {"theta_tuples": 8},
        "distinguish.find_distinguishing_thetas": {"theta_tuples": 8, "calls": 1},
        "hardy.optimize_constrained": {"starts": 4, "feasible": 3},
        "hardy.optimize_unconstrained_measurements": {"starts": 4, "feasible": 4},
        "hardy.lhv_feasibility": {"calls": 2},
        "decohere.immunity_report": {"draws": 8},
        "decohere.fidelity_samples.pure_global": {"draws": 10},
        "decohere.fidelity_samples.per_wing": {"draws": 10},
        "decohere.fidelity_samples.density": {"draws": 10},
        "report.to_json": {"calls": 10},
        "report.render_text": {"calls": 10},
        "cli.lhv_check": {"calls": 10},
    }
    spans = [_span(0, None, "layerpass", 0.0, 100.0)]
    for section in ("correlations", "simulation", "decoherence", "distinguish",
                    "hardy", "lhv"):
        spans.append(_span(len(spans), 0, f"cli.section.{section}", 0.0, 1.0))
    for name, work in names.items():
        spans.append(_span(len(spans), 0, name, 1.0, 2.0, **work))
    return spans


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(spec.WORKLOADS)
    assert set(spec.WORKLOAD_PIECES) == set(spec.WORKLOADS)


def test_metric_names_and_units_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert layer == run.PER_LAYER_UNITS
    traced = {"spans": _synthetic_spans(),
              "counted_calls": {"haar_su2": 40, "apply_collective": 10},
              "span_cost_s": 1e-6, "call_cost_s": 1e-7}
    metrics = run.per_layer_metrics(traced)
    assert set(metrics) == set(layer)
    assert all(isinstance(v, (int, float)) for v in metrics.values())
    assert metrics["qcore.haar_su2.draws"] == 40
    assert metrics["trace.overhead_s"] == len(traced["spans"]) * 1e-6 + 50 * 1e-7


def test_every_module_has_a_per_layer_metric():
    layer = [m["name"] for m in BENCHMARK["per_layer"]]
    for module in tracing.MODULES:
        assert any(n.startswith(module + ".") for n in layer), module


def test_self_time_subtracts_direct_children():
    spans = [_span(0, None, "cli.section.hardy", 0.0, 10.0),
             _span(1, 0, "hardy.optimize_constrained", 1.0, 4.0),
             _span(2, 0, "hardy.lhv_feasibility", 5.0, 6.0)]
    own = tracing.self_times(spans)
    assert own == {0: 6.0, 1: 3.0, 2: 1.0}
    layers = tracing.layer_self_times(spans)
    assert layers["cli"] == 6.0 and layers["hardy"] == 4.0


def test_tracer_records_parents_and_work():
    tr = tracing.Tracer()
    with tr.span("outer"):
        with tr.span("inner", calls=3) as work:
            work["found"] = 1
    outer, inner = tr.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert inner["work"] == {"calls": 3, "found": 1}
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_injected_failing_check_raises_fail_ratio():
    pytest.importorskip("dfsbell")
    import workloads
    from dfsbell.localmeas import ExperimentRecord

    counts = {pair: {(oa, ob): 0 for oa in (-1, 1) for ob in (-1, 1)}
              for pair in (("F", "F"), ("F", "G"), ("G", "F"), ("G", "G"))}
    counts[("G", "G")][(1, 1)] = 9
    counts[("G", "G")][(-1, -1)] = 103
    counts[("F", "F")][(1, 1)] = 1    # the injected forbidden outcome
    rec = ExperimentRecord(n_rounds=113, settings_policy="random",
                           rotations_policy="fresh", seed=0, counts=counts)
    checks = workloads.simulation_checks(rec, "fresh frames: ")
    assert [c["name"] for c in checks] == list(spec.CHECKS["simulate"])
    it = {"crashed": False, "checks": checks}
    assert not run.passed(it)
    failed = sum(not c["passed"] for c in checks)
    assert failed / len(checks) > 0


def test_crashed_child_counts_every_check_as_failed():
    it = run.run_child([sys.executable, "-c", "raise SystemExit(3)"],
                       spec.CHECKS["scan"])
    assert it["crashed"]
    assert [c["name"] for c in it["checks"]] == list(spec.CHECKS["scan"])
    assert not any(c["passed"] for c in it["checks"])


def test_unreported_check_counts_as_failed():
    out = json.dumps({"setup_s": 1.0, "wall_s": 1.0, "peak_rss_mb": 1.0,
                      "checks": [{"name": spec.CHECKS["scan"][0],
                                  "passed": True, "value": "6"}]})
    it = run.run_child([sys.executable, "-c", f"print({out!r})"],
                       spec.CHECKS["scan"])
    assert not it["crashed"]
    assert len(it["checks"]) == len(spec.CHECKS["scan"])
    assert not run.passed(it)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_program_calls_are_counted_where_the_program_makes_them():
    pytest.importorskip("dfsbell")
    import workloads
    from dfsbell import decohere, dfs_states

    counts = workloads.count_program_calls()
    try:
        channel = decohere.CollectiveChannel(n_samples=3, scope="per-wing")
        decohere.fidelity_samples(dfs_states.make_eta(), channel, seed=1)
    finally:
        for name, original in workloads.ORIGINAL.items():
            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "dfsbell" and hasattr(module, name):
                    setattr(module, name, original)
    assert counts == {"haar_su2": 6, "apply_collective": 6}
