"""The memos that persist, and the reset of every memo.

Each integral family keeps its values in one memo, the memo of its
:func:`combinat.reduction`, keyed by ``(genus, exponents-sorted-descending)``.
Two of them are saved by the persistent cache (see :mod:`hodgeint.cache`),
which loads into and saves from :func:`tables`: psi's and lambda_{g-1}'s,
whose entries map to values by the reduction's value rule.  Memos behave as
insert-once maps: recomputing a key must produce the same entry, so repeated
insertion is harmless.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Tuple, Union

__all__ = ["TAG_PSI", "TAG_LAMBDA_GM1", "tables", "register_memo", "reset"]

TAG_PSI = "psi"
TAG_LAMBDA_GM1 = "lambda_gm1"

Key = Tuple[int, Tuple[int, ...]]

# the saved memos by tag, in the order they are saved; psi.py and hodge.py
# enter their reduction memos here, hodge.py when it is first imported, which
# `import hodgeint` does not do
_tables: Dict[str, Dict[Key, Union[int, Fraction]]] = {}
# clear() of every memo: each combinat.reduction memo and the lru_caches of
# combinat.py, psi.py, series1d.py, hodge.py and mumford.py
_memos: List[Callable[[], None]] = []


def tables() -> Dict[str, Dict[Key, Union[int, Fraction]]]:
    return _tables


def register_memo(clear: Callable[[], None]) -> None:
    """Have reset() call clear, the emptying method of a memo."""
    _memos.append(clear)


def reset() -> None:
    """Empty every memo, the saved ones among them."""
    for clear in _memos:
        clear()
