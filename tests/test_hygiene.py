"""Source hygiene: every imported name is used in the module that imports it,
every public top-level name of the package, and every public method of a
reached class, is reached from the package's own code, the scripts or the
benchmark (or is kept on purpose), the package has
no ``assert`` statement, every memo of the package is bounded, no plain
cokernel is built as a ``Subquotient`` of an identity lattice, and every
library hook of the benchmark under ``perfbench/`` still resolves.

The scan is a plain ``ast`` walk over the package, the tests and the
scripts; the reach scan also reads each package module's ``symtable`` to
tell a global name from a local one. ``__future__`` imports and the
package's ``__init__`` (whose imports are its public re-exports) are
skipped.
"""

import ast
import importlib
import importlib.util
import os
import symtable

import pytest

import tauthom

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "tauthom")
PERFBENCH = os.path.join(ROOT, "perfbench")
SCRIPTS = os.path.join(ROOT, "scripts")
SCANNED = (PACKAGE, os.path.join(ROOT, "tests"), SCRIPTS)

# public names (top-level, or Class.method) that no caller in the package, the
# scripts or the benchmark reaches, kept on purpose
KEPT = (
    "mosaic",                 # the mosaic of a set system (acceptance criterion 7)
    "regularize",             # a cover disjointified into a partition (criterion 7)
    "kolmogoroff_uct_check",  # UCT along a refinement chain (criterion 8)
    "free_colimit_basis",     # the free-colimit certificate of a telescope (criterion 8)
    "comparison_into_limit",  # H(A) -> lim H(N), the tautness comparison (criterion 9)
    "normalize",              # the presentation entry point of the groups doctests
    "hom_into_colim_check",   # Hom(colim, G) -> lim Hom(A_k, G), the dual of sixterm's map
    # the additivity axiom of set functions, in the kolmogoroff docstring and the README
    "KolmogoroffChain.evaluate_sets",
)


def _sources(folders=SCANNED):
    for folder in folders:
        for name in sorted(os.listdir(folder)):
            path = os.path.join(folder, name)
            if name.endswith(".py") and path != os.path.join(PACKAGE, "__init__.py"):
                yield path


def _parse(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), path)


def _named(node):
    """Every identifier and attribute name referenced under ``node``."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def unused_imports(path):
    """``file:line:name`` for each name imported in ``path`` and never referenced."""
    tree = _parse(path)
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


def test_package_has_no_assert_statements():
    # a library check must raise explicitly: python -O strips assert
    found = ["%s:%d" % (name, node.lineno) for name in sorted(os.listdir(PACKAGE))
             if name.endswith(".py")
             for node in ast.walk(_parse(os.path.join(PACKAGE, name)))
             if isinstance(node, ast.Assert)]
    assert found == []


def unbounded_memos(path):
    """``file:line:name`` for each function in ``path`` memoised by
    ``functools.lru_cache`` without a literal positive int ``maxsize``, or
    by ``functools.cache`` while taking arguments: a memo whose key space
    is the caller's input must have a finite bound."""
    tree = _parse(path)
    modules, names = {"functools"}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "functools")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update((a.asname or a.name, a.name) for a in node.names)

    def resolve(expr):
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) \
                and expr.value.id in modules:
            return expr.attr
        return names.get(expr.id) if isinstance(expr, ast.Name) else None

    rel, found = os.path.relpath(path, ROOT), []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        takes_args = bool(args.posonlyargs or args.args or args.vararg
                          or args.kwonlyargs or args.kwarg)
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            kind = resolve(call.func if call else dec)
            if kind == "lru_cache":
                # a bare @lru_cache has no literal size
                size = ([k.value for k in call.keywords if k.arg == "maxsize"] + call.args[:1]
                        if call else [])
                bounded = len(size) == 1 and isinstance(size[0], ast.Constant) \
                    and type(size[0].value) is int and size[0].value > 0
            elif kind == "cache":
                bounded = not takes_args
            else:
                continue
            if not bounded:
                found.append("%s:%d:%s" % (rel, node.lineno, node.name))
    return found


def test_memo_scan_flags_unbounded_memos(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import functools\nimport functools as ft\n"
                    "from functools import cache, lru_cache as lru\n\n"
                    "@functools.lru_cache(maxsize=64)\ndef bounded(x):\n    pass\n\n"
                    "@lru(32)\ndef positional(x):\n    pass\n\n"
                    "@cache\ndef constant():\n    pass\n\n"
                    "@functools.lru_cache(maxsize=None)\ndef unbounded(x):\n    pass\n\n"
                    "@ft.lru_cache\ndef implicit(x):\n    pass\n\n"
                    "SIZE = 8\n\n@lru(maxsize=SIZE)\ndef named(x):\n    pass\n\n"
                    "@functools.cache\ndef keyed(x):\n    pass\n\n"
                    "class Table:\n    @cache\n    def method(self):\n        pass\n",
                    encoding="utf-8")
    flagged = [item.rsplit(":", 1)[1] for item in unbounded_memos(str(path))]
    assert flagged == ["unbounded", "implicit", "named", "keyed", "method"]


def test_package_memos_are_bounded():
    # keep resource use bounded: every memo of the library has a finite size
    assert [item for name in sorted(os.listdir(PACKAGE)) if name.endswith(".py")
            for item in unbounded_memos(os.path.join(PACKAGE, name))] == []


def identity_subquotients(path):
    """``file:line`` for each call ``Subquotient(IntMatrix.identity(...), ...)``
    in ``path``, bare or as a module attribute, numerator given by position
    or keyword. Such a quotient is a plain cokernel, which ``_cokernel``
    reads straight off one Smith form, with no Hermite form of I and no
    solves or products against it."""
    def named(expr, name):
        return isinstance(expr, ast.Name) and expr.id == name \
            or isinstance(expr, ast.Attribute) and expr.attr == name

    rel, found = os.path.relpath(path, ROOT), []
    for node in ast.walk(_parse(path)):
        if not (isinstance(node, ast.Call) and named(node.func, "Subquotient")):
            continue
        numerator = node.args[:1] + [k.value for k in node.keywords if k.arg == "numerator"]
        if any(isinstance(arg, ast.Call) and isinstance(arg.func, ast.Attribute)
               and arg.func.attr == "identity" and named(arg.func.value, "IntMatrix")
               for arg in numerator):
            found.append("%s:%d" % (rel, node.lineno))
    return found


def test_identity_scan_flags_plain_cokernels(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from tauthom import groups\n"
                    "from tauthom.groups import Subquotient\n"
                    "from tauthom.matrices import IntMatrix\n\n"
                    "a = Subquotient(IntMatrix.identity(3), rel)\n"
                    "b = groups.Subquotient(IntMatrix.identity(n), rel)\n"
                    "c = Subquotient(denominator=rel, numerator=IntMatrix.identity(2))\n"
                    "d = Subquotient(lattice, IntMatrix.identity(2))\n"
                    "e = Subquotient(IntMatrix.zeros(2, 2), rel)\n"
                    "f = IntMatrix.identity(3)\n"
                    "g = Subquotient(hstack(IntMatrix.identity(2), rel), rel)\n",
                    encoding="utf-8")
    flagged = [item.rsplit(":", 1)[1] for item in identity_subquotients(str(path))]
    assert flagged == ["5", "6", "7"]


def test_package_reads_plain_cokernels_off_smith_forms():
    assert [item for path in _sources((PACKAGE,))
            for item in identity_subquotients(path)] == []


def _global_loads(table, nested=True):
    """The names that the scope ``table`` (and, if ``nested``, every scope
    inside it) loads from its module's globals."""
    names = {s.get_name() for s in table.get_symbols() if s.is_global() and s.is_referenced()}
    for child in table.get_children() if nested else ():
        names |= _global_loads(child)
    return names


def _attributes(nodes):
    return {n.attr for node in nodes for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _units(path):
    """The reach graph of one package module: ``{key: (loads, attributes)}``
    for each top-level function or class (key ``name``) and each method of a
    class (key ``Class.method``), with the global names the unit loads and
    the attribute names it uses. A class holds its bases, its decorators and
    the statements of its body that are not methods; the key ``None`` holds
    every name the module-level statements that are not definitions use,
    as both."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    tables = {(t.get_name(), t.get_lineno()): t
              for t in symtable.symtable(source, path, "exec").get_children()}
    root = set()
    units = {None: (root, root)}
    for node in ast.parse(source, path).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            root |= _named(node)
            continue
        table = tables[node.name, node.lineno]
        heads = node.decorator_list + getattr(node, "bases", [])
        loads = {n.id for head in heads for n in ast.walk(head) if isinstance(n, ast.Name)}
        if isinstance(node, ast.FunctionDef):
            units[node.name] = (loads | _global_loads(table), _attributes(heads + node.body))
            continue
        methods = {(t.get_name(), t.get_lineno()): t for t in table.get_children()}
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                units[node.name + "." + item.name] = (
                    _global_loads(methods[item.name, item.lineno]), _attributes(item.body))
                heads += item.decorator_list
            else:
                heads.append(item)
        units[node.name] = (loads | _global_loads(table, nested=False), _attributes(heads))
    return units


def unreached_public_names(package, callers, kept=()):
    """``module:name`` for each public top-level function or class of the
    ``package`` modules that no code reaches, and ``module:Class.method`` for
    each public method or property of a reached class that no code reaches.

    Names resolve by binding. The roots are the ``kept`` names, every name
    in ``callers`` and the module-level statements of the package that are
    not definitions. A top-level definition is reached by a load of its
    global name from reached code; a local variable, a parameter or an
    attribute of the same name does not reach it. A method is reached when
    its class is and, unless it is private, its name is used as an attribute
    in the callers or in reached code, its own class's reached methods
    included. Tests are no roots, so a name only they call is reported."""
    loads = set().union(*(_named(_parse(path)) for path in callers))
    attrs, units, module = set(loads), {}, {}
    for path in package:
        for key, unit in _units(path).items():
            if key is None:
                loads |= unit[0]
                attrs |= unit[1]
            else:
                units[key], module[key] = unit, os.path.basename(path)
    reached, grew = set(), True
    while grew:
        grew = False
        for key, (unit_loads, unit_attrs) in units.items():
            owner, _, name = key.rpartition(".")
            if key not in reached and (key in kept or (
                    owner in reached and (name.startswith("_") or name in attrs)
                    if owner else key in loads)):
                reached.add(key)
                loads |= unit_loads
                attrs |= unit_attrs
                grew = True
    return sorted("%s:%s" % (module[key], key) for key in units if key not in reached
                  and not key.rpartition(".")[2].startswith("_")
                  and key.partition(".")[0] in reached.union([key]))


def test_reach_scan_flags_a_test_only_name(tmp_path):
    lib, caller = tmp_path / "lib.py", tmp_path / "caller.py"
    lib.write_text("TABLE = {'a': used}\n\ndef used():\n    return Helper()\n\n"
                   "class Helper:\n    pass\n\ndef chained():\n    return orphan()\n\n"
                   "def orphan():\n    pass\n\ndef _private():\n    pass\n\n"
                   "def called():\n    pass\n", encoding="utf-8")
    caller.write_text("import lib\nlib.called()\n", encoding="utf-8")
    assert unreached_public_names([str(lib)], [str(caller)]) == \
        ["lib.py:chained", "lib.py:orphan"]


def test_reach_scan_resolves_names_by_binding(tmp_path):
    # image is only a parameter and a local elsewhere, inverse only a class
    # attribute, elements (and missing, which only it calls) only tests
    # would call; order is reached through self from the reached size
    lib, caller = tmp_path / "lib.py", tmp_path / "caller.py"
    lib.write_text("def image(f):\n    pass\n\ndef inverse(f):\n    pass\n\n"
                   "class Base:\n    inverse = False\n\n"
                   "class Group(Base):\n    def __init__(self, image):\n"
                   "        image = self._scale = image\n\n"
                   "    @property\n    def size(self):\n"
                   "        return self.order(self.inverse)\n\n"
                   "    def order(self, x):\n        return x\n\n"
                   "    def elements(self):\n        return [self.missing()]\n\n"
                   "    def missing(self):\n        pass\n", encoding="utf-8")
    caller.write_text("import lib\nprint(lib.Group(1).size)\n", encoding="utf-8")
    assert unreached_public_names([str(lib)], [str(caller)]) == \
        ["lib.py:Group.elements", "lib.py:Group.missing", "lib.py:image", "lib.py:inverse"]
    # a kept method reaches what it calls
    assert unreached_public_names([str(lib)], [str(caller)], ("Group.elements",)) == \
        ["lib.py:image", "lib.py:inverse"]


def test_every_public_name_has_a_caller():
    package, callers = list(_sources((PACKAGE,))), list(_sources((SCRIPTS, PERFBENCH)))
    assert unreached_public_names(package, callers, KEPT) == []
    # a kept name that gains a caller leaves KEPT
    unreached = unreached_public_names(package, callers)
    assert set(KEPT) <= {item.split(":")[1] for item in unreached}


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
