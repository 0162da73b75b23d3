"""Lint: every module-level function and class under src/ is used.

A standard-library AST scan, like test_no_unused_imports.py.  A definition
counts as used when a module under src/ names it outside the definition's own
body (a bare name, an attribute or an imported name) or lists it in an
``__all__``; a name used only by tests, or only by its own recursion, is dead.
A module's PEP 562 hooks, ``__getattr__`` and ``__dir__``, count as used: the
interpreter calls them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))
MODULE_HOOKS = {"__getattr__", "__dir__"}


def _names(node):
    """Every name a subtree refers to."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def dead_definitions(sources):
    """(module, name) of each module-level def or class in ``sources``
    ({module: source text}) that nothing outside its own body refers to."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    exported, uses = set(MODULE_HOOKS), {}
    for tree in trees.values():
        for name in _names(tree):
            uses[name] = uses.get(name, 0) + 1
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported.update(ast.literal_eval(node.value))
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inside = sum(name == node.name for name in _names(node))
                if node.name not in exported and uses.get(node.name, 0) == inside:
                    dead.append((module, node.name))
    return sorted(dead)


def test_no_dead_code():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in SOURCES}
    assert dead_definitions(sources) == []


def test_scanner_sees_dead_and_used_definitions():
    sources = {
        "a.py": (
            "__all__ = ['public']\n"
            "def public(): return _helper() + other.imported()\n"
            "def _helper(): return 1\n"
            "def _recursive(n): return _recursive(n - 1)\n"
            "class _Unused: pass\n"
            "def _memo(): pass\n"
            "register(_memo.cache_clear)\n"
        ),
        "other.py": "from a import _attr_only\ndef imported(): return a._by_attribute\n",
        "b.py": "def _attr_only(): pass\ndef _by_attribute(): pass\ndef _dead(): pass\n",
        "lazy.py": (
            "def __getattr__(name): return _load(name)\n"
            "def __dir__(): return []\n"
            "def _load(name): return name\n"
            "def _unused_beside_hooks(): pass\n"
        ),
    }
    assert dead_definitions(sources) == [
        ("a.py", "_Unused"),
        ("a.py", "_recursive"),
        ("b.py", "_dead"),
        ("lazy.py", "_unused_beside_hooks"),
    ]
