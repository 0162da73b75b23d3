"""Exact classical sequences and coefficient symbols.

Everything here returns ``fractions.Fraction`` or ``int``; no floating point
anywhere.  The bracket symbol ``[x]^k_i`` is the elementary-symmetric-function
coefficient

    sum_i [x]^k_i t^i = (t+x)(t+x+1)...(t+x+k),

which also packages ratios of Gamma functions at half-integers as rising
products, keeping all operator coefficients rational.  Its integer kernel
:func:`rising_numerator` gives one coefficient of the rising product.

The lambda and constraint evaluators read a coefficient of L_k on a partition
function, built from two blocks in the shifted class weight b: the linear block
(:func:`linear_block`) and the order-hbar split block (:func:`split_weights`,
:func:`split_block`), which splits through :func:`graded_splits` as psi does.
:func:`family_key` is the one gate every integral family's entries pass:
canonical key, stability, insertion limit and grading; :class:`Family`
builds a family's entries on it, and :func:`reduction` is every family's
recursion.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional
from typing import Sequence, Tuple, Union

from .errors import DomainError, check_points
from .store import register_memo

__all__ = [
    "LAMBDA_GG_GRADING",
    "LAMBDA_GM1_GRADING",
    "LAMBDA_GM2_GRADING",
    "LAMBDA_G_GRADING",
    "PSI_GRADING",
    "Family",
    "Key",
    "bernoulli",
    "bracket",
    "double_factorial",
    "family_key",
    "graded_splits",
    "harmonic",
    "linear_block",
    "multinomial",
    "multisets",
    "reduction",
    "rising_numerator",
    "runs",
    "split_block",
    "split_weights",
    "stirling_s2",
]

# (slope, offset) of a family's grading: a genus-h integral with n insertions
# summing to d is nonzero only if d - n = slope * h + offset.
PSI_GRADING = (3, -3)  # d = 3h - 3 + n
LAMBDA_G_GRADING = (2, -3)  # lambda_g: d = 2h - 3 + n
LAMBDA_GM1_GRADING = (2, -2)  # lambda_{h-1}: d = 2h - 2 + n
LAMBDA_GG_GRADING = (1, -2)  # lambda_h lambda_{h-1}: d = h - 2 + n
LAMBDA_GM2_GRADING = (1, -1)  # lambda_h lambda_{h-2}: d = h - 1 + n

Key = Tuple[int, ...]
Value = Union[int, Fraction]


def family_key(
    g: int,
    ks: Iterable[int],
    grading: Tuple[int, int],
    gmin: int = 0,
    nmin: int = 0,
    strict: bool = False,
) -> Optional[Tuple[int, ...]]:
    """The canonical (descending) key of a family's genus-g integral with
    insertions ks, or None when the integral is zero.

    A genus below gmin, fewer than nmin insertions, an unstable (g, n) or a
    negative exponent raise DomainError in strict mode and give None
    otherwise; more than MAX_POINTS insertions raise LimitError in both modes;
    a key off the family's grading gives None.
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
    slope, offset = grading
    return key if sum(key) - n == slope * g + offset else None


class Family(NamedTuple):
    """A row of the family table ``hodge.FAMILIES``: one integral family of
    psi classes against a lambda monomial."""

    name: str  # its sweep name, and the tag of its cache records if it is saved
    letter: Optional[str]  # its `lambda --class` letter
    offsets: Key  # its lambda monomial, as the j of each lambda_{g-j}
    grading: Tuple[int, int]
    gmin: int
    nmin: int
    rec: Callable[[int, Key], Value]  # its reduction, whose memo the sweep checks
    seeds: Tuple[Tuple[int, Key], ...]  # nonzero keys for the string-dilaton sweep
    strict: Optional[Callable[[int, Iterable[int]], Fraction]] = None  # see named
    or_zero: Optional[Callable[[int, Iterable[int]], Fraction]] = None

    def named(self, strict_name: Optional[str] = None) -> "Family":
        """The row with its entries, named strict_name (default: the row's
        name) and the row's name + "_or_zero", both read ``rec.value``."""
        grading, gmin, nmin, value = self.grading, self.gmin, self.nmin, self.rec.value

        def strict(g: int, ks: Iterable[int]) -> Fraction:
            """The genus-g integral with insertions ks, 0 off the grading; raises
            DomainError below gmin or nmin, for unstable (g, n) or a negative
            exponent, and LimitError beyond MAX_POINTS insertions."""
            key = family_key(g, ks, grading, gmin, nmin, strict=True)
            return Fraction(0) if key is None else value(g, key)

        def or_zero(g: int, ks: Iterable[int]) -> Fraction:
            """Like the strict entry, but 0 where it raises DomainError (for sums)."""
            key = family_key(g, ks, grading, gmin, nmin)
            return Fraction(0) if key is None else value(g, key)

        strict.__name__ = strict.__qualname__ = strict_name or self.name
        or_zero.__name__ = or_zero.__qualname__ = self.name + "_or_zero"
        return self._replace(strict=strict, or_zero=or_zero)


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with the convention B_1 = -1/2.

    Computed from the recurrence sum_{k=0}^{n} C(n+1, k) B_k = 0, summed as
    integer numerators over one common denominator.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Fraction(1)
    bs = [bernoulli(k) for k in range(n)]
    d = lcm(*(x.denominator for x in bs))
    s = sum(comb(n + 1, k) * x.numerator * (d // x.denominator) for k, x in enumerate(bs) if x)
    return Fraction(-s, (n + 1) * d)


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


register_memo(bernoulli.cache_clear)
register_memo(rising_numerator.cache_clear)


def bracket(x, k: int, i: int):
    """The symbol [x]^k_i: coefficient of t^i in prod_{j=0}^{k}(t + x + j).

    Defined for k >= -1 (k = -1 gives the empty product, so only i = 0 is
    nonzero); an int at integer x, else a Fraction.  Out-of-range i returns
    0; the Virasoro operator sums rely on that convention.
    """
    if k < -1:
        raise ValueError("k must be >= -1")
    if i < 0 or i > k + 1:
        return 0
    p, q = x.numerator, x.denominator
    n = rising_numerator(p, q, k, i)
    return n if q == 1 else Fraction(n, q ** (k + 1 - i))


def stirling_s2(n: int) -> int:
    """|s(n, 2)| = (n-1)! H_{n-1}, the unsigned Stirling number of the first
    kind, by |s(m+1, 2)| = m |s(m, 2)| + (m-1)!: without :func:`harmonic`, so
    that it checks c_g, which is built from H."""
    if n < 2:
        raise ValueError("n must be >= 2")
    s, fact = 1, 1  # |s(m, 2)| and (m-1)! at m = 2
    for m in range(2, n):
        s, fact = m * s + fact, m * fact
    return s


def harmonic(n: int) -> Fraction:
    """H_n = sum_{k=1}^{n} 1/k."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def multinomial(n: int, parts: Sequence[int]) -> int:
    """n! / prod(parts_i!); rejects part lists that do not sum to n."""
    if not sum(parts) == n == sum(map(abs, parts)):  # a wrong sum or a negative part
        if min(parts, default=0) < 0:
            raise ValueError("parts must be nonnegative")
        raise ValueError(f"parts {list(parts)} do not sum to {n}")
    return factorial(n) // prod(map(factorial, parts))


def double_factorial(n: int) -> int:
    """n!! with (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError("n must be >= -1")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


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


def linear_block(
    k: int, i: int, b, derivs: Tuple[int, ...], head: Tuple[int, ...] = ()
) -> Iterator[Tuple[Union[int, Fraction], Tuple[int, ...]]]:
    """The linear block sum_j [b + j]^k_i t_j d/dt_{j+k-i} of L_k, with the
    dilaton shift t_1 -> t_1 - 1, differentiated at the origin by ``derivs``.

    Yields (coefficient, insertions): first the dilaton term
    (-[b + 1]^k_i, (k + 1 - i,) + head + derivs), then ([b + j]^k_i, with j
    raised to j + k - i) for each position j of ``derivs`` (ints at integer
    b).  ``head`` holds insertions the block carries along without raising.
    """
    yield -bracket(b + 1, k, i), (k + 1 - i,) + head + derivs
    for p, j in enumerate(derivs):
        yield bracket(b + j, k, i), (k + j - i,) + head + derivs[:p] + derivs[p + 1 :]


@lru_cache(maxsize=None)
def split_weights(k: int, i: int, b) -> Tuple[Tuple[int, Union[int, Fraction]], ...]:
    """(m, (-1)^{m+1} [b - m - 1]^k_i) for m = 0..k-i-1, zero weights left
    out: the order-hbar block of L_k is 1/2 sum_m w_m d_m d_{k-m-i-1}, and
    the caller halves the sum it builds from these (ints at integer b)."""
    weights = ((m, bracket(b - m - 1, k, i)) for m in range(k - i))
    return tuple((m, w if m % 2 else -w) for m, w in weights if w)


register_memo(split_weights.cache_clear)


def split_block(
    k: int,
    i: int,
    b,
    derivs: Sequence[int],
    genus: int,
    grading: Tuple[int, int],
    lhead: Tuple[int, ...] = (),
    rhead: Tuple[int, ...] = (),
) -> Iterator[Tuple[Union[int, Fraction], Tuple[int, ...], Tuple[int, ...], int]]:
    """Twice the order-hbar block of L_k on a genus-split product,
    differentiated at the origin by ``derivs``.

    Yields (weight, left, right, g1): left = (m,) + lhead + I and
    right = (k-m-i-1,) + rhead + J over the :func:`split_weights` and the
    :func:`graded_splits` I + J of ``derivs``, the weight their product, g1
    the genus the grading leaves the left factor.
    """
    slope, offset = grading
    weights = split_weights(k, i, b)
    base = sum(lhead) - len(lhead) - 1 - offset
    for c, left, right, excess in graded_splits(derivs):
        for m, w in weights:
            g1, r = divmod(base + m + excess, slope)
            if not r and 0 <= g1 <= genus:
                yield w * c, (m,) + lhead + left, (k - m - i - 1,) + rhead + right, g1


def runs(key: Tuple[int, ...]) -> Iterator[Tuple[int, int, int]]:
    """(entry, multiplicity, index of its last copy) of each distinct entry of
    a sorted key, in one scan: operator contractions slice copies out of
    sorted terms."""
    n, i = len(key), 0
    while i < n:
        v, j = key[i], i + 1
        while j < n and key[j] == v:
            j += 1
        yield v, j - i, j - 1
        i = j


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
