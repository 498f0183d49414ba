"""Import hygiene for the package, checked with the standard library's ast
(no linter is a dependency): every top-level import in a module is used, or
marked ``# noqa: F401`` and rebound by the benchmark's tracer, every private
module-level name is read somewhere else in the package, every name the
package exports resolves, and every top-level import is of the standard
library, the package itself or a dependency declared in pyproject.toml."""

import ast
import re
import sys
import tomllib
from pathlib import Path

import pytest

import netupgrade

SRC = Path(netupgrade.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def unread_imports(source: str) -> list[tuple[str, int, bool]]:
    """(name, line, marked) for each name bound by a top-level import that
    the module never reads; ``marked`` says the import statement carries
    ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        marked = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno, marked
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(name, line, marked) for name, (line, marked) in imported.items()
            if name not in used]


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that the module never reads, except
    on import statements marked ``# noqa: F401``."""
    return [f"line {line}: {name}" for name, line, marked in unread_imports(source)
            if not marked]


def tracer_patches(source: str) -> set[tuple[str, str]]:
    """(owner, attribute) for every ``patch(owner, "attribute", ...)`` call;
    an owner bound by an enclosing ``for owner in (a, b)`` stands for a and b."""
    patched = set()

    def visit(node, loops):
        if (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
                and isinstance(node.iter, ast.Tuple)):
            loops = {**loops, node.target.id: [getattr(e, "id", None) for e in node.iter.elts]}
        if (isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "patch"
                and len(node.args) >= 2 and isinstance(node.args[0], ast.Name)
                and isinstance(node.args[1], ast.Constant)):
            owner = node.args[0].id
            patched.update((o, node.args[1].value) for o in loops.get(owner, [owner]))
        for child in ast.iter_child_nodes(node):
            visit(child, loops)

    visit(ast.parse(source), {})
    return patched


def unpatched_marked_imports(sources: dict[str, str], tracer: str) -> list[str]:
    """``module.name`` for each name a module imports under ``# noqa: F401``
    and never reads that the tracer does not rebind on that module.
    ``sources`` maps module names to their text."""
    patched = tracer_patches(tracer)
    return [f"{module}.{name}" for module, source in sources.items()
            for name, _line, marked in unread_imports(source)
            if marked and (module, name) not in patched]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_flags_only_unmarked_dead_names():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from json import dumps as d, loads\n"
              "from re import compile  # noqa: F401\n"
              "print(sys.argv, loads)\n")
    assert unused_imports(source) == ["line 2: os", "line 3: d"]


def test_every_marked_unread_import_is_rebound_by_the_tracer():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert unpatched_marked_imports(sources, TRACING.read_text()) == []


def test_marked_import_check_flags_names_the_tracer_does_not_rebind():
    sources = {"a": ("from .b import walk, step, hop  # noqa: F401\n"
                     "from .c import sort  # noqa: F401\n"
                     "print(hop)\n"),
               "d": "from .b import walk  # noqa: F401\n"}
    tracer = ("class Tracer:\n"
              "    def install(self):\n"
              "        for owner in (b, a):\n"
              "            self.patch(owner, 'walk', 'b.walk')\n"
              "        self.patch(c, 'sort', 'c.sort')\n"
              "        for name in ('step',):\n"
              "            self.patch(a, name, 'b.step')\n")
    assert tracer_patches(tracer) == {("b", "walk"), ("a", "walk"), ("c", "sort")}
    assert unpatched_marked_imports(sources, tracer) == ["a.step", "a.sort", "d.walk"]


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` definitions (functions, classes, assignments)
    that no statement of any module reads, other than the one defining it.
    ``sources`` maps module file names to their text."""
    defined, readers = [], {}
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(name, module, stmt) for name in names
                        if name.startswith("_") and not name.startswith("__")]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                readers.setdefault(name, []).append(stmt)
    return [f"{module} line {stmt.lineno}: {name}" for name, module, stmt in defined
            if all(reader is stmt for reader in readers.get(name, ()))]


def test_every_private_name_is_read_elsewhere_in_the_package():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert dead_private_names(sources) == []


def test_dead_private_check_flags_names_read_only_by_their_own_definition():
    sources = {"a.py": ("_LIMIT = 3\n"
                        "_SPARE: int = 4\n"
                        "def _walk(n):\n"
                        "    return _walk(n - 1) if n else _LIMIT\n"
                        "def _used():\n"
                        "    pass\n"
                        "class _Rec:\n"
                        "    pass\n"
                        "def __getattr__(name):\n"
                        "    pass\n"),
               "b.py": "from .a import _used\n"}
    assert dead_private_names(sources) == [
        "a.py line 2: _SPARE", "a.py line 3: _walk", "a.py line 7: _Rec"]


def test_every_exported_name_resolves():
    missing = [name for name in netupgrade.__all__ if not hasattr(netupgrade, name)]
    assert missing == []


def declared_dependencies(pyproject: str) -> set[str]:
    """Import names of the ``[project].dependencies`` requirements: each
    requirement's distribution name, lower-cased, with "-" read as "_"."""
    requirements = tomllib.loads(pyproject)["project"].get("dependencies", [])
    return {re.match(r"[A-Za-z0-9._-]+", r).group().lower().replace("-", "_")
            for r in requirements}


def undeclared_imports(source: str, declared: set[str]) -> list[str]:
    """Top-level modules imported at module level that are neither the
    standard library, the package (relative or ``netupgrade``), nor declared."""
    allowed = set(sys.stdlib_module_names) | declared | {"netupgrade", "__future__"}
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            names += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append((node.lineno, node.module.split(".")[0]))
    return [f"line {line}: {name}" for line, name in names if name not in allowed]


@pytest.mark.parametrize("path", MODULES + [SRC / "__init__.py"], ids=lambda p: p.name)
def test_every_top_level_import_is_stdlib_the_package_or_declared(path):
    declared = declared_dependencies(PYPROJECT.read_text())
    assert undeclared_imports(path.read_text(), declared) == []


def test_undeclared_import_check_flags_only_unlisted_third_party_modules():
    pyproject = ('[project]\nname = "x"\n'
                 'dependencies = ["orjson>=3.8", "Typing-Extensions ; python_version<\'3.12\'"]\n')
    declared = declared_dependencies(pyproject)
    assert declared == {"orjson", "typing_extensions"}
    source = ("from __future__ import annotations\n"
              "import json, os.path\n"
              "import numpy as np\n"
              "import orjson\n"
              "from . import generate\n"
              "from .instances import DagEdge\n"
              "from netupgrade.cli import main\n"
              "from scipy.optimize import milp\n"
              "import typing_extensions\n"
              "def f():\n"
              "    import networkx\n")
    assert undeclared_imports(source, declared) == ["line 3: numpy", "line 8: scipy"]
