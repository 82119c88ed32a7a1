"""Every name a module of the package imports is used in that module, and
every function, class and method it defines is referenced.

Parses each ``src/monocat/*.py`` with ``ast``; a name counts as used when it
occurs as a name anywhere in the module, so annotations are covered.  The
one allowed re-export is ``decompose.BudgetExceeded``, which ``cli`` and the
benchmark tracer import from there.

A definition counts as referenced when its name occurs outside its own body
in ``src/``, ``tests/`` or ``bench/``: as a name, as an attribute, or as a
component of a dotted string such as the tracer's target
``"concrete.ConcreteModule.submodules"``.  Dunders are exempt."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "monocat"
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


DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def definitions(tree: ast.Module) -> list:
    """(name, first line, last line) of every function, class and method,
    nested ones included, dunders left out."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [(node.name, node.lineno, node.end_lineno) for node in ast.walk(tree)
            if isinstance(node, kinds) and not re.fullmatch(r"__\w+__", node.name)]


def references(tree: ast.Module) -> list:
    """(name, line) of every name, attribute and dotted-string component."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.fullmatch(node.value):
            out += [(part, node.lineno) for part in node.value.split(".")]
    return out


def orphaned_definitions(defining: dict, referring: dict) -> list:
    """(file, line, name) of each definition in the trees of ``defining``
    whose name is referenced in no tree of ``referring`` outside its own
    lines; both map a file name to its parsed tree."""
    where = {}
    for path, tree in referring.items():
        for name, line in references(tree):
            where.setdefault(name, []).append((path, line))
    return sorted((path, first, name)
                  for path, tree in defining.items() for name, first, last in definitions(tree)
                  if all(ref == path and first <= line <= last
                         for ref, line in where.get(name, ())))


def test_orphaned_definition_is_found():
    snippet = ast.parse(
        "def used():\n"
        "    return 1\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.value = used()\n"
        "    def read(self):\n"
        "        return self.value\n"
        "    def stale(self):\n"
        "        pass\n"
        "    def traced(self):\n"
        "        pass\n"
        "Box().read()\n")
    tracer = ast.parse("TARGETS = [('snippet', 'Box.traced', 'snippet.Box.traced')]\n")
    found = orphaned_definitions({"snippet": snippet}, {"snippet": snippet, "tracer": tracer})
    assert found == [("snippet", 3, "recursive"), ("snippet", 10, "stale")]


def test_no_orphaned_definitions():
    trees = {path: ast.parse(path.read_text())
             for folder in ("src", "tests", "bench")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    orphans = orphaned_definitions(
        {path: tree for path, tree in trees.items() if path.parent == SRC}, trees)
    assert not orphans, [(path.name, line, name) for path, line, name in orphans]
