"""Every name a module of the package imports is used in that module.

Parses each ``src/monocat/*.py`` with ``ast``; a name counts as used when it
occurs as a name anywhere in the module, so annotations are covered.  The
one allowed re-export is ``decompose.BudgetExceeded``, which ``cli`` and the
benchmark tracer import from there."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "monocat"
ALLOWED = {("decompose", "BudgetExceeded")}


def unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_is_found():
    tree = ast.parse("import math\nfrom typing import List, Optional\nx: Optional[int] = 1\n")
    assert unused_imports(tree) == [(1, "math"), (2, "List")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = [(line, name) for line, name in unused_imports(ast.parse(path.read_text()))
              if (path.stem, name) not in ALLOWED]
    assert not unused, f"{path.name}: unused imports {unused}"
