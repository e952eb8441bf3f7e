"""Source hygiene: every imported name is used in the module that imports it,
and every library hook of the benchmark under ``perfbench/`` still resolves.

The scan is a plain ``ast`` walk over the package, the tests and the
scripts. ``__future__`` imports and the package's ``__init__`` (whose
imports are its public re-exports) are skipped.
"""

import ast
import importlib
import importlib.util
import os

import pytest

import tauthom

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "tauthom")
PERFBENCH = os.path.join(ROOT, "perfbench")
SCANNED = (PACKAGE, os.path.join(ROOT, "tests"), os.path.join(ROOT, "scripts"))


def _sources():
    for folder in SCANNED:
        for name in sorted(os.listdir(folder)):
            path = os.path.join(folder, name)
            if name.endswith(".py") and path != os.path.join(PACKAGE, "__init__.py"):
                yield path


def unused_imports(path):
    """``file:line:name`` for each name imported in ``path`` and never referenced."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend((node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.extend((node.lineno, a.asname or a.name) for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    rel = os.path.relpath(path, ROOT)
    return ["%s:%d:%s" % (rel, line, name) for line, name in imported if name not in used]


def test_scan_flags_an_unused_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from __future__ import annotations\nimport os, sys\n"
                    "from json import dumps as d, loads\nprint(sys.argv, loads)\n",
                    encoding="utf-8")
    flagged = [item.rsplit(":", 2)[1:] for item in unused_imports(str(path))]
    assert flagged == [["2", "os"], ["3", "d"]]


@pytest.mark.parametrize("path", list(_sources()), ids=lambda p: os.path.relpath(p, ROOT))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_benchmark_tracing_hooks_resolve():
    # the traced run keys every span and counter by its function's __code__
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    hooks = {name: funcs + ([under] if under is not None else [])
             for name, (funcs, under) in tracing._spans(tauthom).items()}
    hooks.update((name, [f]) for name, f in tracing._counters(tauthom).items())
    assert hooks
    assert [name for name, funcs in hooks.items()
            if not all(hasattr(f, "__code__") for f in funcs)] == []


def test_benchmark_workload_imports_resolve():
    path = os.path.join(PERFBENCH, "workloads.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    names = [(node.module, a.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module
             and node.module.split(".")[0] == "tauthom" for a in node.names]
    assert names
    missing = ["%s.%s" % (module, name) for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
