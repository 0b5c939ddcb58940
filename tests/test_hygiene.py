"""Import hygiene of the package modules and the test files.

Every name a package module or test file imports is used in that file,
unless its import line is marked ``# noqa: F401``, and no package module
imports an underscore name from another package module.  No linter ships
with the test environment, so these are those checks.  ``__init__.py`` is
exempt: its imports are the package's re-exports.  Importing the command
line loads no scipy module, which would cost every process its import time.
Haar frames are drawn in batches everywhere.  Every public function, class
and method is used somewhere in the package outside its own body, or is
listed in ``UNREFERENCED`` with the reason it is kept.  Every private
module-level function, class and constant is read in its own module outside
its own definition.  What the benchmark's workloads and tests call still
exists, with the keywords they pass.  README's session runs as a doctest,
and every name its module table cites exists in the module its row names.
Every ``test_...`` name that a package docstring or comment cites, to say
which test checks a derivation, is a test defined under ``tests/`` or
``perfbench/``.
"""

import ast
import dataclasses
import doctest
import importlib
import inspect
import os
import re
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dfsbell"
PERFBENCH = PACKAGE.parent.parent / "perfbench"
README = PACKAGE.parent.parent / "README.md"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _unused_imports(path: Path) -> list:
    text = path.read_text()
    tree = ast.parse(text)
    # a deliberate import, such as a warm-up before tracing, says so
    exempt = {i for i, line in enumerate(text.splitlines(), 1)
              if line.rstrip().endswith("# noqa: F401")}
    imported = set()
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) in exempt:
            continue
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
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
    "conditional_probability": "the conditional identities from eigen-bras",
    "wing_outcome_distribution": "classified product words, against the eigen-bras",
    "dfs_observable": "the sector observable at any angle, reproducing F and G",
    "to_full_state": "the 2x2 Hardy model, against the 256 amplitudes",
    "omega_from_thetas": "the closed-form angle condition behind the grid scan",
    "fixed_angle_maximum": "the fixed-angle curve, against the free-angle optimum",
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
    "fidelity_samples": "the layer pass times one state per scope with it; "
                        "immunity_report scores its scopes through the same "
                        "chunk scorer",
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


def _private_definitions(tree) -> list:
    """``(name, node)`` of each private module-level function, class and
    constant."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        defs += [(name, node) for name in names
                 if name.startswith("_") and not name.endswith("__")]
    return defs


def _loads(node) -> Counter:
    """How often each bare name is read under ``node``."""
    return Counter(n.id for n in ast.walk(node)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_read_in_its_module(path):
    # no other package module may import it, so a private name that its own
    # module never reads serves only the tests, and belongs in them.  Reads
    # inside its own definition (a recursive call) do not count
    tree = ast.parse(path.read_text())
    loads = _loads(tree)
    assert [name for name, node in _private_definitions(tree)
            if not (loads - _loads(node))[name]] == []


def _import_from(module: str, name: str):
    """What ``from module import name`` binds: a submodule, else an attribute."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name)


def _package_imports(tree) -> dict:
    """Each name that a ``from dfsbell... import`` anywhere in ``tree``, a
    function body included, binds, to the module or object it names."""
    return {a.asname or a.name: _import_from(node.module, a.name)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "dfsbell"
            for a in node.names}


def test_benchmark_calls_match_the_package(monkeypatch):
    """The benchmark's workloads and its own tests reach the package through
    names and keywords that this test pins, so a change to the package that
    would break a benchmark run or test fails here first.  What the benchmark
    alone holds in place, which ROADMAP item 2 deletes once item 1 has
    changed the workloads: the unused ``n_starts`` and ``seed`` of both Hardy
    solves, the scan's ``refine_tol``, ``OptimizationResult.n_feasible`` and
    ``ExperimentRecord``'s ``settings_policy``, all read in the static part,
    and the per-frame chain of the layer pass, run once below: a
    ``haar_su2`` frame into ``apply_collective``, ``Observable.rotated`` and
    ``LocalRotation``."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = _package_imports(tree)
    assert {"hardy", "qcore", "distinguish"} <= set(modules)

    # every module attribute read, and every keyword of a call to an
    # imported name or to a module attribute
    for path in (PERFBENCH / "workloads.py", PERFBENCH / "test_perfbench.py"):
        file_tree = ast.parse(path.read_text())
        bound = _package_imports(file_tree)

        def module_attr(node):
            return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and inspect.ismodule(bound.get(node.value.id)))
        for node in ast.walk(file_tree):
            if module_attr(node):
                assert hasattr(bound[node.value.id], node.attr), node.attr
            if not isinstance(node, ast.Call):
                continue
            if module_attr(node.func):
                name = node.func.attr
                callee = getattr(bound[node.func.value.id], name)
            elif isinstance(node.func, ast.Name) and node.func.id in bound:
                name = node.func.id
                callee = bound[name]
            else:
                continue
            params = inspect.signature(callee).parameters
            for kw in node.keywords:
                assert kw.arg in params, f"{path.name}: {name}({kw.arg}=...)"

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


def test_readme_session_runs():
    text = README.read_text()
    session = re.search(r"```python\n(.*?)```", text, re.S)
    lineno = text[:session.start()].count("\n") + 1
    test = doctest.DocTestParser().get_doctest(session[1], {}, "README.md",
                                               str(README), lineno)
    out = []
    result = doctest.DocTestRunner().run(test, out=out.append)
    assert result.attempted and not result.failed, "".join(out)


def _cites(module, token: str) -> bool:
    """Whether ``token`` (``name`` or ``Class.name``) is an attribute of
    ``module`` or of its class, or a field of a dataclass defined there."""
    def fields(cls):
        return ({f.name for f in dataclasses.fields(cls)}
                if dataclasses.is_dataclass(cls) else set())
    owner, _, name = token.rpartition(".")
    if owner:
        cls = getattr(module, owner, None)
        return cls is not None and (hasattr(cls, name) or name in fields(cls))
    return hasattr(module, name) or any(
        name in fields(obj) for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__)


def test_readme_module_table_names_what_exists():
    rows = re.findall(r"^\| `dfsbell\.(\w+)` \|(.*)\|$", README.read_text(), re.M)
    assert rows
    missing = [f"{name}: {token}" for name, cell in rows
               for token in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)?)`", cell)
               if not _cites(importlib.import_module(f"dfsbell.{name}"), token)]
    assert missing == []


def _cited_tests(path: Path) -> set:
    """The ``test_...`` names in the docstrings and comments of ``path``."""
    tree = ast.parse(path.read_text())
    texts = [ast.get_docstring(node) or "" for node in ast.walk(tree)
             if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))]
    with path.open() as f:
        texts += [tok.string for tok in tokenize.generate_tokens(f.readline)
                  if tok.type == tokenize.COMMENT]
    return {name for text in texts for name in re.findall(r"\btest_\w+", text)}


def test_docstrings_cite_tests_that_exist():
    cited = set().union(*map(_cited_tests, PACKAGE.glob("*.py")))
    defined = {node.name for path in [*TESTS, *PERFBENCH.glob("*.py")]
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert cited
    assert sorted(cited - defined) == []
