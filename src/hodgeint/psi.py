"""Pure psi intersection numbers on moduli of stable pointed curves.

The recursion runs over the integer N_g(K) = 2^{D(g)} prod_{k in K} (2k+1)!!
<tau_K>_g, with D(0) = 0 and D(g) = 4g - 1: a :func:`combinat.reduction` of
weight (a, b) = (2, 1), genus constant 2^{-D(g)}.  Its base is
:func:`closed_form`, which answers every genus-0 key, <tau_K>_0 =
(n-3)! / prod k_i!, and every one-point key, <tau_{3g-2}>_g = 1/(24^g g!)
(Witten).  The other keys, of genus >= 1 with two or more insertions, take
the driver's string, dilaton and raise steps; a top insertion of level
k+1 >= 2 goes by the Dijkgraaf-Verlinde-Verlinde form of the level-k
Virasoro constraint, recursing on (g, n):

    N_g(k+1, S) = sum_j (2d_j + 1) N_g(d_j + k, S\\j)
        + 2^{D(g)-D(g-1)-1} sum_{r+s=k-1} N_{g-1}(r, s, S)
        + sum_{r+s=k-1, g1+g2=g, I+J=S} 2^{D(g)-D(g1)-D(g2)-1} N_{g1}(r, I) N_{g2}(s, J).

With every exponent in S at least 2, the grading gives both factors of a split
genus >= 1, so every split exponent is 0: the 1/2 of genus-0 splits never arises.

The recursion's memo of N is the one store of psi values, and the persistent
cache saves it; the reduction's value rule converts between N and the value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import TYPE_CHECKING, Optional

from .combinat import Family, Key, graded_splits, multinomial, multisets, reduction
from .store import TAG_PSI, register_memo, tables

if TYPE_CHECKING:
    from .phase_space import TruncatedSeries

__all__ = ["PSI", "psi_integral", "psi_or_zero", "point_partition"]


def _top(g: int, key: Key) -> int:
    # N_g(k + 1, rest) by the DVV step of the module docstring, on the sorted
    # keys it reaches, all stable and on the grading; a top key has g >= 2
    # (all exponents >= 2), so D(g) - D(g-1) - 1 = 3.  Each term reads the
    # memo first; N > 0, so a falsy read is a miss
    k, rest, get = key[0] - 1, key[1:], _psi_rec.get
    val = 0
    for r in range(k):
        low = (g - 1, tuple(sorted(rest + (r, k - 1 - r), reverse=True)))
        val += get(low) or _rec(*low)
    val = (val << 3) + _rec.linear(g, key)
    for c, left, right, excess in graded_splits(rest):
        # the left factor (r, left) has genus g1 = (r + 2 + excess) / 3, so the
        # r of one split step by 3; excess >= 0 keeps g1 and g - g1 >= 1
        for g1 in range(-(-(2 + excess) // 3), (k + 1 + excess) // 3 + 1):
            r = 3 * g1 - 2 - excess
            lk = (g1, tuple(sorted((r,) + left, reverse=True)))
            rk = (g - g1, tuple(sorted((k - 1 - r,) + right, reverse=True)))
            val += c * (get(lk) or _rec(*lk)) * (get(rk) or _rec(*rk))
    return val


def _base(g: int, key: Key) -> Optional[int]:
    val = closed_form(g, key)
    return None if val is None else _rec.entry(g, key, val)


def closed_form(g: int, key: Key) -> Optional[Fraction]:
    """<tau_key>_g at genus 0 and with one point, else None: the base of the
    recursion, and what a cached psi value at a canonical key must be."""
    if g == 0:
        return Fraction(multinomial(len(key) - 3, key))
    return Fraction(1, 24**g * factorial(g)) if len(key) == 1 else None


# the genus constant 2^{-D(g)}, cached: building it costs more than a memo read
_const = lru_cache(maxsize=None)(lambda g: Fraction(1, 1 << max(4 * g - 1, 0)))
register_memo(_const.cache_clear)
# N_g(K) of every key the recursion has reached, the memo the cache saves.
# The genus reduction adds an insertion, so the insertion limit is left to
# the entries.
_rec = reduction((2, 1), _base, _top, _const)
_psi_rec = tables()[TAG_PSI] = _rec.memo

PSI = Family(TAG_PSI, None, (), 0, 0, _rec, ((3, (7,)), (2, (3, 2)))).named("psi_integral")
# <tau_{k1} ... tau_{kn}>_g: psi_integral raises DomainError for unstable
# (g, n) and psi_or_zero, for sums, gives 0 there (see Family)
psi_integral, psi_or_zero = PSI.strict, PSI.or_zero


def point_partition(weight_cap: int, genus_cap: int) -> TruncatedSeries:
    """The point generating function exp(sum_g hbar^{g-1} F_g), truncated.

    Monomials are kept up to the given descendent weight and with hbar powers
    in [-(weight_cap // 3), genus_cap - 1].  Within these caps the result is
    exact.  A free-energy term of genus g carries weight at least 3g - 1, and
    above genus_cap it reaches the hbar window only through g - genus_cap
    genus-0 factors (hbar^{-1}, weight at least 3 each).  So genus g is kept
    when 3g - 1 + 3 max(0, g - genus_cap) <= weight_cap.  The same count
    bounds the partial products of a product that reaches the window: its
    factors of genus >= 1 have sum (g_i - 1) = g - 1 for a g that passes the
    test, and genus-0 factors only lower hbar, never below the window's
    floor.  So exp runs on the window up to hbar^{max(genus_cap, g) - 1}.
    """
    # the one psi code that reads phase_space, so `import hodgeint` skips it
    from .phase_space import Caps, TruncatedSeries

    caps = Caps(weight_cap, -(weight_cap // 3), genus_cap - 1)
    genera = [
        g
        for g in range(weight_cap + 1)
        if 3 * g - 1 + 3 * max(0, g - genus_cap) <= weight_cap
    ]
    terms = {}
    for g in genera:
        n = 3 if g == 0 else 1
        while 3 * g - 3 + 2 * n <= weight_cap:
            for part in multisets(n, 3 * g - 3 + n):
                val = _rec.value(g, part)
                if val:
                    sym = prod(factorial(part.count(x)) for x in set(part))
                    mono = tuple(((0, x), part.count(x)) for x in sorted(set(part)))
                    terms[(g - 1, mono)] = val / sym
            n += 1
    wide = Caps(weight_cap, caps.hbar_min, max([genus_cap, *genera]) - 1)
    return TruncatedSeries(caps, TruncatedSeries(wide, terms).exp().terms)
