"""Import hygiene for the package, checked with the standard library's ast
(no linter is a dependency): every top-level import in a module is used,
and every name the package exports resolves."""

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


def test_every_exported_name_resolves():
    missing = [name for name in netupgrade.__all__ if not hasattr(netupgrade, name)]
    assert missing == []
