"""What the psi core and the lazy layers share: the family gate, the family
row, the reduction driver and the integer kernels of more than one layer.

:func:`grading` is the dimension rule of every family, :func:`family_key`
the one gate every integral family's entries pass: canonical key,
stability, insertion limit and grading; :class:`Family` builds a family's
entries on it, and :func:`reduction` is every family's recursion.
:func:`multisets` and :func:`graded_splits` list keys and their splits over
two factors, :func:`multinomial` is the genus-0 and lambda_g value, and
:func:`rising_numerator` gives one integer coefficient of a rising product,
the kernel of the bracket symbols of :mod:`hodgeint.hodge` and of
:mod:`hodgeint.operators`.  Everything here returns ``int`` or
``fractions.Fraction``; no floating point anywhere.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional
from typing import Sequence, Tuple, Union

from .errors import DomainError, check_points
from .store import register_memo

__all__ = [
    "Family",
    "Key",
    "family_key",
    "graded_splits",
    "grading",
    "multinomial",
    "multisets",
    "reduction",
    "rising_numerator",
]

Key = Tuple[int, ...]
Value = Union[int, Fraction]


def grading(offsets: Key) -> Tuple[int, int]:
    """(slope, offset) of the grading of the family with lambda monomial
    prod_j lambda_{h-j}, j over ``offsets``: its genus-h integral with n
    insertions summing to d is nonzero only if d - n = slope * h + offset,
    as the psi degree d and the lambda degree sum_j (h - j) fill the
    dimension 3h - 3 + n of the moduli space."""
    return 3 - len(offsets), sum(offsets) - 3


def family_key(
    g: int,
    ks: Iterable[int],
    rule: Tuple[int, int],
    gmin: int = 0,
    nmin: int = 0,
    strict: bool = False,
) -> Optional[Tuple[int, ...]]:
    """The canonical (descending) key of a family's genus-g integral with
    insertions ks, or None when the integral is zero.

    A genus below gmin, fewer than nmin insertions, an unstable (g, n) or a
    negative exponent raise DomainError in strict mode and give None
    otherwise; more than MAX_POINTS insertions raise LimitError in both modes;
    a key off the family's grading, ``rule`` = :func:`grading` of its lambda
    offsets, gives None.
    """
    key = tuple(sorted(ks, reverse=True))
    n = len(key)
    if g < gmin or n < nmin or 2 * g - 2 + n <= 0 or n and key[-1] < 0:
        if not strict:
            return None
        if g < gmin:
            raise DomainError(f"genus must be >= {gmin}")
        if n < nmin:
            raise DomainError("need at least one insertion")
        if 2 * g - 2 + n <= 0:
            raise DomainError(f"(g, n) = ({g}, {n}) is unstable")
        raise DomainError("exponents must be >= 0")
    check_points(n)
    slope, offset = rule
    return key if sum(key) - n == slope * g + offset else None


class Family(NamedTuple):
    """A row of the family table ``hodge.FAMILIES``: one integral family of
    psi classes against a lambda monomial."""

    name: str  # its sweep name, and the tag of its cache records if it is saved
    letter: Optional[str]  # its `lambda --class` letter
    offsets: Key  # its lambda monomial, as the j of each lambda_{g-j}
    gmin: int
    nmin: int
    rec: Callable[[int, Key], Value]  # its reduction, whose memo the sweep checks
    seeds: Tuple[Tuple[int, Key], ...]  # nonzero keys for the string-dilaton sweep
    strict: Optional[Callable[[int, Iterable[int]], Fraction]] = None  # see named
    or_zero: Optional[Callable[[int, Iterable[int]], Fraction]] = None

    def named(self, strict_name: Optional[str] = None) -> "Family":
        """The row with its entries, named strict_name (default: the row's
        name) and the row's name + "_or_zero", both read ``rec.value``."""
        rule, gmin, nmin, value = grading(self.offsets), self.gmin, self.nmin, self.rec.value

        def strict(g: int, ks: Iterable[int]) -> Fraction:
            """The genus-g integral with insertions ks, 0 off the grading; raises
            DomainError below gmin or nmin, for unstable (g, n) or a negative
            exponent, and LimitError beyond MAX_POINTS insertions."""
            key = family_key(g, ks, rule, gmin, nmin, strict=True)
            return Fraction(0) if key is None else value(g, key)

        def or_zero(g: int, ks: Iterable[int]) -> Fraction:
            """Like the strict entry, but 0 where it raises DomainError (for sums)."""
            key = family_key(g, ks, rule, gmin, nmin)
            return Fraction(0) if key is None else value(g, key)

        strict.__name__ = strict.__qualname__ = strict_name or self.name
        or_zero.__name__ = or_zero.__qualname__ = self.name + "_or_zero"
        return self._replace(strict=strict, or_zero=or_zero)


@lru_cache(maxsize=None)
def rising_numerator(p: int, q: int, k: int, i: int) -> int:
    """q^{k+1-i} [p/q]^k_i, an integer for 0 <= i <= k + 1: the coefficient
    of s^i in prod_{j=0}^{k} (s + p + j q), since prod_j (t + p/q + j) =
    q^{-(k+1)} prod_j (q t + p + j q).  The product is kept to degree i, so
    the cost is O(k (i + 1))."""
    coeffs = [1]
    for j in range(k + 1):
        root = p + j * q
        coeffs = [a * root + b for a, b in zip(coeffs + [0], [0] + coeffs)][: i + 1]
    return coeffs[i]


register_memo(rising_numerator.cache_clear)


def multinomial(n: int, parts: Sequence[int]) -> int:
    """n! / prod(parts_i!); rejects part lists that do not sum to n."""
    if not sum(parts) == n == sum(map(abs, parts)):  # a wrong sum or a negative part
        if min(parts, default=0) < 0:
            raise ValueError("parts must be nonnegative")
        raise ValueError(f"parts {list(parts)} do not sum to {n}")
    return factorial(n) // prod(map(factorial, parts))


def multisets(n: int, total: int) -> List[Tuple[int, ...]]:
    """Non-increasing n-tuples of nonnegative ints summing to total, in
    reverse lexicographic order (none when total < 0)."""

    def rec(n: int, total: int, cap: int) -> List[Tuple[int, ...]]:
        if n == 0:
            return [()] if total == 0 else []
        return [
            (first,) + rest
            for first in range(min(cap, total), -1, -1)
            if first * n >= total
            for rest in rec(n - 1, total - first, first)
        ]

    return rec(n, total, total)


def graded_splits(
    items: Sequence[int],
) -> List[Tuple[int, Tuple[int, ...], Tuple[int, ...], int]]:
    """Splits of the multiset ``items`` over the two factors of a product.

    Lists ``(weight, left, right, excess)`` once per sub-multiset ``left`` of
    ``items`` (``right`` its complement, both non-increasing); ``weight`` =
    prod C(c_v, a_v) counts the subsets of positions that give ``left``;
    ``excess`` = sum(left) - len(left) fixes the genus of the first factor.
    """
    splits = [(1, (), (), 0)]
    for v, c in sorted(Counter(items).items(), reverse=True):
        splits = [
            (w * comb(c, a), left + (v,) * a, right + (v,) * (c - a), e + a * (v - 1))
            for w, left, right, e in splits
            for a in range(c + 1)
        ]
    return splits


# the memo of every reduction; store.reset() empties each
REDUCTION_MEMOS: List[Dict[Tuple[int, Key], Value]] = []


def reduction(weight: Tuple[int, int], base: Callable, top: Optional[Callable],
              const: Optional[Callable[[int], Fraction]] = None) -> Callable[[int, Key], Value]:
    """A family's recursion rec(g, key) on descending genus-g keys, memoized
    by (g, key) in ``rec.memo``: the memo's value, else base(g, key) unless
    None, else for a key ending in 0 or 1 the string or dilaton step, else
    top(g, key), which removes a top insertion >= 2 through rec on canonical
    keys.  The memo is read before each descent, so a known term costs no
    call, and every value is memoized, base values too: a base that answers
    every key makes rec a memoized closed form.

    The weight rule, for every family: the recursion carries w(k) =
    prod_{v=1..k} (a v + b) per insertion k, (a, b) = weight, and a v + b is
    the coefficient of an insertion v in both steps the driver owns.  The
    string step sums c (a v + b) rec(g, key with one v lowered by one) over
    the distinct positive v, c its count, in descending order: the last copy
    of v is lowered, so the key stays descending.  The dilaton step, for a
    trailing 1, is (2g - 3 + len(key)) (a + b) rec(g, key[:-1]).  The raise
    step of the linear block of L_k, ``rec.linear(g, key)`` on a key with
    every entry >= 1, sums c (a v + b) rec(g, key[1:] with one v raised by
    key[0] - 1 to the front) over the distinct v of key[1:].  Both steps walk
    the key in place, a run at a time.  ``rec.scale(key)`` is prod w(k_i), 1
    on ().  So (2, 1) gives w(k) = (2k+1)!!, (1, 0) k!, (2, -1) (2k-1)!! and
    (0, 1) w = 1.  Integer string terms sum as integers, Fractions over one
    common denominator.

    The value rule, the one conversion between the memo, a family's only
    store of values, and its values: with a genus constant C = const, the
    value of an entry N is ``rec.value(g, key)`` = N C(g) / prod w(k_i), one
    Fraction, and ``rec.entry(g, key, value)`` the N of a value, or None
    where that is no integer.  Without one the entries are the values:
    ``rec.value`` is rec, and ``rec.entry`` gives the value back.
    """
    a, b = weight
    memo: Dict[Tuple[int, Key], Value] = {}
    REDUCTION_MEMOS.append(memo)
    register_memo(memo.clear)
    w = lru_cache(maxsize=None)(lambda k: prod(a * v + b for v in range(1, k + 1)))
    register_memo(w.cache_clear)

    def rec(g: int, key: Key) -> Value:
        gk = (g, key)
        val = memo.get(gk)
        if val is not None:
            return val
        val = base(g, key)
        if val is None and key[-1] > 1:
            val = top(g, key)
        elif val is None and key[-1]:
            low = key[:-1]
            x = memo.get((g, low))
            val = (2 * g - 3 + len(key)) * (a + b) * (rec(g, low) if x is None else x)
        elif val is None:
            num, den, i, x = 0, 1, 0, 0
            while key[i]:  # the runs of positive v, ended by the trailing 0
                v = key[i]
                c = key.count(v)
                i += c
                low = key[: i - 1] + (v - 1,) + key[i:-1]
                x = memo.get((g, low))
                if x is None:
                    x = rec(g, low)
                if type(x) is int:
                    num += c * (a * v + b) * x
                else:
                    d = x.denominator
                    m = lcm(den, d)
                    num = num * (m // den) + c * (a * v + b) * x.numerator * (m // d)
                    den = m
            val = num if type(x) is int else Fraction(num, den)
        memo[gk] = val
        return val

    def linear(g: int, key: Key) -> Value:
        k, rest, val, i = key[0] - 1, key[1:], 0, 0
        while i < len(rest):
            v = rest[i]
            c = rest.count(v)
            low = (v + k,) + rest[:i] + rest[i + 1 :]
            i += c
            x = memo.get((g, low))
            val += c * (a * v + b) * (rec(g, low) if x is None else x)
        return val

    def value(g: int, key: Key) -> Fraction:
        c = const(g)
        return Fraction(rec(g, key) * c.numerator, c.denominator * rec.scale(key))

    def entry(g: int, key: Key, value: Fraction) -> Optional[int]:
        c, s = const(g), rec.scale(key)
        n, r = divmod(value.numerator * s * c.denominator, value.denominator * c.numerator)
        return None if r else n

    rec.memo, rec.linear = memo, linear  # type: ignore[attr-defined]
    rec.scale = lambda key: prod(map(w, key))  # type: ignore[attr-defined]
    rec.value, rec.entry = (value, entry) if const else (rec, lambda g, key, value: value)
    return rec
