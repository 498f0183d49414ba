"""Import hygiene for the package, checked with the standard library's ast
(no linter is a dependency): every top-level import in a module is used,
every private module-level name is read somewhere else in the package, and
every name the package exports resolves."""

import ast
from pathlib import Path

import pytest

import netupgrade

SRC = Path(netupgrade.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that the module never reads, except
    on import statements marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


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
