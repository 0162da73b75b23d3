"""Shared memo tables for intersection numbers.

Every memoized integral lives in one of the tables here, keyed by
``(genus, exponents-sorted-descending)``.  Tables behave as insert-once maps:
recomputing a key must produce the same value, so concurrent or repeated
insertion is harmless.  The persistent cache (see :mod:`hodgeint.cache`) loads
into and drains from these tables.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Tuple

__all__ = [
    "TAG_PSI",
    "TAG_LAMBDA_G",
    "TAG_LAMBDA_G_GM1",
    "TAG_LAMBDA_GM1",
    "CACHED_TAGS",
    "tables",
    "lookup",
    "record",
    "preload",
    "computed_count",
    "register_memo",
    "reset",
]

TAG_PSI = "psi"
TAG_LAMBDA_G = "lambda_g"
TAG_LAMBDA_G_GM1 = "lambda_g_gm1"
TAG_LAMBDA_GM1 = "lambda_gm1"

# Tags that are written through to the persistent cache.  Recursion-solver
# oracles keep their reduction's memo instead (see hodge.py): mixing them with
# the closed-form tables would break the dual-route checks.
CACHED_TAGS = (TAG_PSI, TAG_LAMBDA_G, TAG_LAMBDA_G_GM1, TAG_LAMBDA_GM1)

Key = Tuple[int, Tuple[int, ...]]

_tables: Dict[str, Dict[Key, Fraction]] = {t: {} for t in CACHED_TAGS}
_computed = 0
# clear() of every memo kept outside the tables: each combinat.reduction memo
# and the lru_caches of combinat.py, hodge.py and mumford.py
_other_memos: List[Callable[[], None]] = []


def tables() -> Dict[str, Dict[Key, Fraction]]:
    return _tables


def lookup(tag: str, key: Key):
    return _tables[tag].get(key)


def record(tag: str, key: Key, value: Fraction) -> Fraction:
    """Insert a freshly computed value (counts toward computed_count)."""
    global _computed
    _computed += 1
    _tables[tag][key] = value
    return value


def preload(tag: str, key: Key, value: Fraction) -> None:
    """Insert a value loaded from a cache file (does not count as computed)."""
    _tables[tag][key] = value


def computed_count() -> int:
    return _computed


def register_memo(clear: Callable[[], None]) -> None:
    """Have reset() also call clear, the emptying method of a memo kept
    outside the tables."""
    _other_memos.append(clear)


def reset() -> None:
    """Empty every memo: the tables and each registered memo."""
    global _computed
    for t in _tables.values():
        t.clear()
    for clear in _other_memos:
        clear()
    _computed = 0

