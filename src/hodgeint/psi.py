"""Pure psi intersection numbers on moduli of stable pointed curves.

The recursion runs over the integer N_g(K) = 2^{D(g)} prod_{k in K} (2k+1)!!
<tau_K>_g, with D(0) = 0 and D(g) = 4g - 1, from N_0(0,0,0) = N_1(1) = 1.
Insertions of level 0 and 1 are removed by the string and dilaton identities,

    N_g(0, K) = sum_i (2k_i + 1) N_g(K with k_i lowered by one),
    N_g(1, K) = 3 (2g - 2 + |K|) N_g(K),

the terms of :func:`combinat.string_dilaton` weighted by w(v)/w(v-1) = 2v + 1
for the w(k) = (2k+1)!! N carries per insertion; then a top insertion of level
k+1 >= 2 by the Dijkgraaf-Verlinde-Verlinde form of the level-k Virasoro
constraint, recursing on (g, n):

    N_g(k+1, S) = sum_j (2d_j + 1) N_g(d_j + k, S\\j)
        + 2^{D(g)-D(g-1)-1} sum_{r+s=k-1} N_{g-1}(r, s, S)
        + sum_{r+s=k-1, g1+g2=g, I+J=S} 2^{D(g)-D(g1)-D(g2)-1} N_{g1}(r, I) N_{g2}(s, J).

With every exponent in S at least 2, the grading gives both factors of a split
genus >= 1, so every split exponent is 0: the 1/2 of genus-0 splits never arises.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from typing import Dict, Iterable, Sequence, Tuple

from .combinat import (
    PSI_GRADING,
    double_factorial,
    family_key,
    graded_splits,
    multisets,
    runs,
    string_dilaton,
)
from .phase_space import Caps, TruncatedSeries
from .store import TAG_PSI, lookup, record, register_memo

__all__ = ["psi_integral", "psi_or_zero", "point_partition"]

# N_g(K) of every key the recursion has reached
_psi_rec: Dict[Tuple[int, Tuple[int, ...]], int] = {}
register_memo(_psi_rec.clear)


def psi_integral(g: int, ks: Sequence[int]) -> Fraction:
    """<tau_{k1} ... tau_{kn}>_g, exact.

    Returns 0 on dimension mismatch (sum k != 3g - 3 + n); raises DomainError
    for unstable (g, n) and LimitError for more than MAX_POINTS insertions.
    """
    key = family_key(g, ks, PSI_GRADING, strict=True)
    return Fraction(0) if key is None else _psi(g, key)


def psi_or_zero(g: int, ks: Iterable[int]) -> Fraction:
    """Like psi_integral but unstable inputs count as 0 (used inside sums);
    more than MAX_POINTS insertions still raise LimitError."""
    key = family_key(g, ks, PSI_GRADING)
    return Fraction(0) if key is None else _psi(g, key)


def _psi(g: int, ks: Tuple[int, ...]) -> Fraction:
    # ks is a canonical key on the grading
    cached = lookup(TAG_PSI, (g, ks))
    return Fraction(_rec(g, ks), _scale(g, ks)) if cached is None else cached


def _scale(g: int, ks: Tuple[int, ...]) -> int:
    # N_g(K) / <tau_K>_g
    return 2 ** max(4 * g - 1, 0) * prod(double_factorial(2 * k + 1) for k in ks)


def _rec(g: int, ks: Iterable[int]) -> int:
    # N_g(ks), and 0 off the stable range or the grading.  The genus reduction
    # adds an insertion, so the insertion limit is left to the public entries.
    ks = tuple(sorted(ks, reverse=True))
    val = _psi_rec.get((g, ks))
    if val is not None:
        return val
    n = len(ks)
    if g < 0 or 2 * g - 2 + n <= 0 or sum(ks) - n != 3 * g - 3:
        return 0
    scale = _scale(g, ks)
    loaded = lookup(TAG_PSI, (g, ks))
    if loaded is not None and scale % loaded.denominator == 0:
        val = loaded.numerator * (scale // loaded.denominator)
    else:  # not preloaded, or preloaded with a value that is no psi number
        if g == 0 and ks == (0, 0, 0) or g == 1 and ks == (1,):
            val = 1
        elif ks[-1] <= 1:
            val = sum(c * (2 * v + 1) * _rec(g, k) for v, c, k in string_dilaton(g, ks))
        else:
            val = _top_step(g, ks[0] - 1, ks[1:])
        record(TAG_PSI, (g, ks), Fraction(val, scale))
    _psi_rec[g, ks] = val
    return val


def _top_step(g: int, k: int, rest: Tuple[int, ...]) -> int:
    # N_g(k + 1, rest) by the DVV step of the module docstring
    # a top key has g >= 2 (all exponents >= 2), so D(g) - D(g-1) - 1 = 3
    val = sum(_rec(g - 1, rest + (r, k - 1 - r)) for r in range(k)) << 3
    for d, c, i in runs(rest):
        val += c * (2 * d + 1) * _rec(g, rest[:i] + rest[i + 1 :] + (d + k,))
    for c, left, right, excess in graded_splits(rest):
        # the left factor (r, left) has genus g1 = (r + 2 + excess) / 3, so the
        # r of one split step by 3; excess >= 0 keeps g1 and g - g1 >= 1
        for g1 in range(-(-(2 + excess) // 3), (k + 1 + excess) // 3 + 1):
            r = 3 * g1 - 2 - excess
            val += c * _rec(g1, (r,) + left) * _rec(g - g1, (k - 1 - r,) + right)
    return val


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
                val = _psi(g, part)
                if val:
                    sym = prod(factorial(part.count(x)) for x in set(part))
                    mono = tuple(((0, x), part.count(x)) for x in sorted(set(part)))
                    terms[(g - 1, mono)] = val / sym
            n += 1
    wide = Caps(weight_cap, caps.hbar_min, max([genus_cap, *genera]) - 1)
    return TruncatedSeries(caps, TruncatedSeries(wide, terms).exp().terms)
