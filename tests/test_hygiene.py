"""Import hygiene of the package modules.

Every name a package module imports is used in that module, and no module
imports an underscore name from another package module.  No linter ships
with the test environment, so these are those checks.  ``__init__.py`` is
exempt: its imports are the package's re-exports.  Importing the command
line loads no scipy module, which would cost every process its import time.
Haar frames are drawn in batches everywhere.  Every public function, class
and method is used somewhere in the package outside its own body, or is
listed in ``UNREFERENCED`` with the reason it is kept.  What the benchmark's
workloads call still exists, with the keywords they pass.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dfsbell"
PERFBENCH = PACKAGE.parent.parent / "perfbench"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _private_package_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    return sorted(
        a.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "dfsbell")
        for a in node.names
        if a.name.startswith("_") and not a.name.endswith("__"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert _private_package_imports(path) == []


def test_cli_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    probe = ("import sys, dfsbell.cli; "
             "print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_no_module_draws_one_frame_at_a_time():
    """Every module draws its Haar frames with ``haar_su2_batch``, whose
    draws equal the single draws on the same stream; no module calls
    ``haar_su2``."""
    def called(node):
        func = getattr(node, "func", None)
        return (getattr(func, "id", None) == "haar_su2"
                or getattr(func, "attr", None) == "haar_su2")
    # callers by top-level definition, so a call anywhere in a module counts
    callers = sorted(
        f"{path.name}:{getattr(top, 'name', '<module>')}" for path in MODULES
        for top in ast.parse(path.read_text()).body
        if any(map(called, ast.walk(top))))
    assert callers == []


# Public names that no package module uses, each kept on purpose.  The test
# requires this list to be exact, so a name that gains a caller leaves it.
UNREFERENCED = {
    # the second, independent route of a claim
    "joint_probability": "eigen-bra Born probabilities, against the product words",
    "conditional_probability": "the conditional identities from eigen-bras",
    "wing_marginal": "single-wing eigen-bra marginals, against the product words",
    "wing_outcome_distribution": "classified product words, against the eigen-bras",
    "dfs_observable": "the sector observable at any angle, reproducing F and G",
    "dfs_project": "sector coefficients of a state, the inverse of dfs_embed",
    "to_full_state": "the 2x2 Hardy model, against the 256 amplitudes",
    "omega_from_thetas": "the closed-form angle condition behind the grid scan",
    "fixed_angle_maximum": "the fixed-angle curve, against the free-angle optimum",
    "QuantumState.density": "the density branch, against the pure-state draws",
    "singlet": "phi0 = singlet(1,2) x singlet(3,4)",
    "tensor": "phi0 = singlet x singlet and eta's expansion, against the "
              "integer sector table",
    "Observable.to_matrix": "the matrix route of Observable.rotated",
    "load_schema": "the schema check of report-all's output",
    "state_fidelity": "the per-draw route the pure and density chunks are "
                      "compared against",
}
# called by the benchmark (test_benchmark_calls_match_the_package)
BENCHMARK_CALLS = {
    "find_distinguishing_thetas": "the scan workload's search for one angle",
    "Observable.rotated": "the layer pass times it on haar_su2 frames; no "
                          "package module turns observables",
    "haar_su2": "the layer pass draws its probe frames with it, and its call "
                "counter wraps it",
}
UNREFERENCED.update(BENCHMARK_CALLS)


def _registered(node) -> bool:
    # a click command is reached through the group, never by its name
    return any(isinstance(d, ast.Call) and getattr(d.func, "attr", None) == "command"
               for d in node.decorator_list)


def _public_definitions(tree) -> list:
    """``(name, node)`` of each public function, class and method."""
    defs = []
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_") and not _registered(node)):
            defs.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, ast.FunctionDef)
                         and not m.name.startswith("_")]
    return defs


def _reads(node) -> Counter:
    """How often each bare name and each attribute is read under ``node``."""
    return Counter(("name", n.id) if isinstance(n, ast.Name) else ("attr", n.attr)
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_public_name_is_used_or_kept_on_purpose():
    trees = [ast.parse(path.read_text()) for path in MODULES]
    reads = sum(map(_reads, trees), Counter())

    # a method is used when an attribute of its name is read anywhere; a
    # module-level name also when it is read bare.  Reads inside the
    # definition's own body (a recursive call) do not count.
    def used(name, node):
        outside = reads - _reads(node)
        short = name.rsplit(".", 1)[-1]
        return outside[("attr", short)] > 0 or (
            "." not in name and outside[("name", short)] > 0)

    unused = {name for tree in trees for name, node in _public_definitions(tree)
              if not used(name, node)}
    assert sorted(unused) == sorted(UNREFERENCED)


def test_benchmark_calls_match_the_package(monkeypatch):
    """The benchmark's workloads reach the package through names and keywords
    that this test pins, so a change to the package that would break a
    benchmark run fails here first.  What the benchmark alone holds in place,
    which ROADMAP item 2 deletes once item 1 has changed the workloads: the
    unused ``n_starts`` and ``seed`` of both Hardy solves, the scan's
    ``refine_tol`` and ``OptimizationResult.n_feasible``, all read in the
    static part, and the per-frame chain of the layer pass, run once below:
    a ``haar_su2`` frame into ``apply_collective``, ``Observable.rotated``
    and ``LocalRotation``."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {a.asname or a.name: importlib.import_module(f"dfsbell.{a.name}")
               for node in tree.body if isinstance(node, ast.ImportFrom)
               and node.module == "dfsbell" for a in node.names}
    assert {"hardy", "qcore", "distinguish"} <= set(modules)

    # every module attribute read, and every keyword of a direct module call
    def module_attr(node):
        return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules)
    for node in ast.walk(tree):
        if module_attr(node):
            assert hasattr(modules[node.value.id], node.attr), node.attr
        if isinstance(node, ast.Call) and module_attr(node.func):
            params = inspect.signature(
                getattr(modules[node.func.value.id], node.func.attr)).parameters
            for kw in node.keywords:
                assert kw.arg in params, f"{node.func.attr}({kw.arg}=...)"

    # the solvers behind a loop variable, run as the workloads run them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("tracing").NullTracer()
    verdicts = workloads.hardy_calls(3, tracer) + workloads.lhv_calls(3, tracer)
    assert verdicts and all(v["passed"] for v in verdicts), verdicts

    # the probe chain of workloads.probes, once, and a Check without source
    qcore, dfs_states = modules["qcore"], modules["dfs_states"]
    correlations = modules["correlations"]
    eta, f, g = dfs_states.make_eta(), dfs_states.make_f(), dfs_states.make_g()
    rng = np.random.default_rng(3)
    u, v = qcore.haar_su2(rng), qcore.haar_su2(rng)
    qcore.apply_collective(eta, u, wing="alice")
    g.rotated(u)
    correlations.joint_distribution(
        eta, correlations.Setting(f, correlations.LocalRotation(u, "alice")),
        correlations.Setting(g, correlations.LocalRotation(v, "bob")))
    modules["report"].Check(name="probe", passed=True)

    read = {name for kind, name in _reads(tree) if kind == "attr"}
    assert {name.rsplit(".", 1)[-1] for name in BENCHMARK_CALLS} <= read
