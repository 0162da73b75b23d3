"""Lint: every module-level function and class under src/, and every named
method of a class there, is used.

A standard-library AST scan, like test_no_unused_imports.py.  A definition
counts as used when a module under src/ names it outside the definition's own
body (a bare name, an attribute or an imported name) or lists it in an
``__all__``; a name used only by tests, or only by its own recursion, is dead.
A method counts as used when a module under src/ reads it as an attribute
outside the method's own body.  A module's PEP 562 hooks, ``__getattr__`` and
``__dir__``, and a class's dunder methods count as used: the interpreter
calls them.
"""

import ast
from pathlib import Path

from test_no_unused_imports import exported_names

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


def _reads(node):
    """Every attribute name a subtree reads."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def _methods(tree):
    """(Class.method, def node) of each named method of a class in a tree."""
    for cls in ast.walk(tree):
        for node in cls.body if isinstance(cls, ast.ClassDef) else ():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                yield f"{cls.name}.{node.name}", node


def dead_definitions(sources):
    """(module, name) of each module-level def or class in ``sources``
    ({module: source text}) that nothing outside its own body refers to, and
    (module, Class.method) of each named method that nothing outside its own
    body reads as an attribute."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    exported, uses, reads = set(MODULE_HOOKS), {}, {}
    for tree in trees.values():
        for name in _names(tree):
            uses[name] = uses.get(name, 0) + 1
        for name in _reads(tree):
            reads[name] = reads.get(name, 0) + 1
        exported |= exported_names(tree)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inside = sum(name == node.name for name in _names(node))
                if node.name not in exported and uses.get(node.name, 0) == inside:
                    dead.append((module, node.name))
        for qualname, node in _methods(tree):
            inside = sum(name == node.name for name in _reads(node))
            if reads.get(node.name, 0) == inside:
                dead.append((module, qualname))
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
            "def deferred(): pass\n"
            "def starred(): pass\n"
            "_DEFERRED = {**dict.fromkeys(('deferred',), 'lazy')}\n"
            "_STARRED = ['starred']\n"
            "__all__ = [*_STARRED]\n"
            "__all__ += _DEFERRED\n"
        ),
        "c.py": (
            "class Used:\n"
            "    def __add__(self, other): return self\n"
            "    def read(self): return self._helper()\n"
            "    def _helper(self): return 1\n"
            "    def _again(self): return self._again()\n"
            "    def unread(self): pass\n"
            "    def _written(self): pass\n"
            "def _use(x): x._written = None; return Used().read() + Used() + x\n"
            "_use(None)\n"
        ),
    }
    assert dead_definitions(sources) == [
        ("a.py", "_Unused"),
        ("a.py", "_recursive"),
        ("b.py", "_dead"),
        ("c.py", "Used._again"),
        ("c.py", "Used._written"),
        ("c.py", "Used.unread"),
        ("lazy.py", "_unused_beside_hooks"),
    ]
