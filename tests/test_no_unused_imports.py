"""Lint: every name imported by a module under src/ or tests/ is used.

A standard-library AST scan, so it runs wherever the suite runs.  A name
counts as used when the module loads it anywhere (a bare name or the root of
an attribute chain) or lists it in ``__all__``; ``from __future__`` imports
are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str):
    """(line, name) of each name the module imports and never uses."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported_names(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def exported_names(tree):
    """The names a module lists in ``__all__``: by ``__all__ = [...]`` and
    ``__all__ += ...``, where an entry may be starred and a module-level name
    stands for its list or dict literal (a dict gives its keys, and a
    ``**dict.fromkeys(names, ...)`` entry its names)."""
    literals, names = {}, set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        if "__all__" in targets:
            names |= _literal_names(node.value, literals)
        literals.update(dict.fromkeys(targets, node.value))
    return names


def _literal_names(node, literals):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.Name) and node.id in literals:
        return _literal_names(literals[node.id], literals)
    if isinstance(node, ast.Starred):
        return _literal_names(node.value, literals)
    parts = []
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        parts = node.elts
    elif isinstance(node, ast.Dict):  # a None key is a ** entry
        parts = [v if k is None else k for k, v in zip(node.keys, node.values)]
    elif isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "fromkeys":
        parts = node.args[:1]
    return set().union(*(_literal_names(part, literals) for part in parts))


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scanner_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import xml.dom\n"
        "from math import comb as choose, factorial\n"
        "from typing import List\n"
        "__all__ = ['factorial']\n"
        "x: List[int] = [sys.argv, xml.dom]\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "choose")]


def test_scanner_reads_every_form_of_all():
    # a name exported only through a starred entry or an `__all__ +=` line of
    # a module-level literal counts as used
    source = (
        "from a import one, two, three, four, five, unused\n"
        "_LAZY = {**dict.fromkeys(('three', 'four'), 'mod'), 'five': 'mod'}\n"
        "_MORE = ['two']\n"
        "__all__ = ['one', *_MORE]\n"
        "__all__ += _LAZY\n"
    )
    assert unused_imports(source) == [(1, "unused")]
    assert exported_names(ast.parse(source)) == {"one", "two", "three", "four", "five"}
