"""Pure psi intersection numbers on moduli of stable pointed curves.

Values are pinned down by the annihilation of the point partition function by
the half-integer-coefficient Virasoro operators: insertions of level 0 and 1
are removed by the string and dilaton identities (the k = -1 and k = 0
constraint coefficients), and a top insertion of level k+1 >= 2 is removed by
coefficient extraction from the level-k constraint, recursing on (g, n).

The extraction reads, with A(k, m) = [m + 1/2]^k_0:

    A(k,1) <tau_{k+1} K>_g =
        sum_{m in K} A(k,m) <tau_{m+k} K\\m>_g
        + 1/2 sum_{m=0}^{k-1} (-1)^{m+1} [-m-1/2]^k_0 (
              <tau_m tau_{k-m-1} K>_{g-1}
            + sum_{g1+g2=g, I+J=K} <tau_m I>_{g1} <tau_{k-m-1} J>_{g2} ).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from typing import Iterable, Sequence, Tuple

from .combinat import (
    PSI_GRADING,
    bracket,
    family_key,
    linear_block,
    lowerings,
    multisets,
    split_block,
    split_weights,
)
from .phase_space import Caps, TruncatedSeries
from .store import TAG_PSI, lookup, record

__all__ = ["psi_integral", "psi_or_zero", "point_partition"]

Half = Fraction(1, 2)


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
    # ks is a canonical key on the grading; the steps below keep both
    n = len(ks)
    key = (g, ks)
    cached = lookup(TAG_PSI, key)
    if cached is not None:
        return cached
    if g == 0 and ks == (0, 0, 0):
        return record(TAG_PSI, key, Fraction(1))
    if g == 1 and ks == (1,):
        return record(TAG_PSI, key, _one_point_genus_one())
    if ks[-1] == 0:
        val = sum((c * _psi(g, low) for _, c, low in lowerings(ks[:-1])), Fraction(0))
    elif ks[-1] == 1:
        val = (2 * g - 2 + n - 1) * _psi(g, ks[:-1])
    else:
        val = _top_reduction(g, ks)
    return record(TAG_PSI, key, val)


def _one_point_genus_one() -> Fraction:
    # The level-1 constraint, coefficient of t_0 at order hbar^0: with
    # x = <tau_1>_1 (and <tau_0 tau_2>_1 = x by the string identity),
    #   [1/2]^1_0 x - [3/2]^1_0 x - (1/2) [-1/2]^1_0 <tau_0^3>_0 = 0.
    a0 = bracket(Half, 1, 0)
    a1 = bracket(Half + 1, 1, 0)
    c = -Fraction(1, 2) * bracket(-Half, 1, 0)  # times <tau_0^3>_0 = 1
    return c / (a1 - a0)


def _top_reduction(g: int, ks: Tuple[int, ...]) -> Fraction:
    # the level-k constraint solved for its dilaton term -[3/2]^k_0 <tau_{k+1} rest>
    k = ks[0] - 1  # >= 1 here
    rest = ks[1:]
    (lead, _), *linear = linear_block(k, 0, Half, rest)
    total = Fraction(0)
    for c, key in linear:
        total += c * psi_or_zero(g, key)
    for m, w in split_weights(k, 0, Half):
        total += w * psi_or_zero(g - 1, rest + (m, k - m - 1))
    for w, left, right, g1 in split_block(k, 0, Half, rest, g, PSI_GRADING):
        total += w * psi_or_zero(g1, left) * psi_or_zero(g - g1, right)
    return total / -lead


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
            d = 3 * g - 3 + n
            for part in multisets(n, d):
                val = _psi(g, part)
                if val:
                    sym = prod(
                        factorial(part.count(x)) for x in set(part)
                    )
                    mono = tuple(
                        ((0, x), part.count(x)) for x in sorted(set(part))
                    )
                    terms[(g - 1, mono)] = val / sym
            n += 1
    wide = Caps(weight_cap, caps.hbar_min, max([genus_cap, *genera]) - 1)
    return TruncatedSeries(caps, TruncatedSeries(wide, terms).exp().terms)
