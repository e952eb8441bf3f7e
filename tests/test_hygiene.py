"""Source hygiene: every imported name is used in the module that imports it.

The scan is a plain ``ast`` walk over the package, the tests and the
scripts. ``__future__`` imports and the package's ``__init__`` (whose
imports are its public re-exports) are skipped.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "tauthom")
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
