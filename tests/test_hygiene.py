"""Import hygiene of the package modules.

Every name a package module imports is used in that module, and no module
imports an underscore name from another package module.  No linter ships
with the test environment, so these are those checks.  ``__init__.py`` is
exempt: its imports are the package's re-exports.  Importing the command
line loads no scipy module, which would cost every process its import time.
Haar frames are drawn in batches wherever a module needs many of them at
once.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dfsbell"
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


def test_only_decohere_draws_one_frame_at_a_time():
    """Every module but ``decohere`` draws its Haar frames with
    ``haar_su2_batch``, whose draws equal the single draws on the same
    stream.  ``decohere.fidelity_samples`` still calls ``haar_su2`` once per
    rotated wing per draw: the benchmark counts those calls as its draw
    count, so batching them waits on a change of that count."""
    def called(node):
        func = getattr(node, "func", None)
        return (getattr(func, "id", None) == "haar_su2"
                or getattr(func, "attr", None) == "haar_su2")
    callers = sorted(path.name for path in MODULES
                     if any(map(called, ast.walk(ast.parse(path.read_text())))))
    assert callers == ["decohere.py"]
