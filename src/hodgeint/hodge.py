"""Integrals of lambda classes against psi classes.

Four families are covered, named by the lambda-class factor paired with the
psi monomial:

* ``lambda_g``            -- closed multinomial form, genus constant b_g;
* ``lambda_g_gm1``        -- lambda_g lambda_{g-1}, closed double-factorial form;
* ``lambda_gm1``          -- lambda_{g-1} alone, no closed form is known; values
                             come from the n = 1 constants c_g and the curve
                             constraint relations (best effort, fails loudly);
* ``lambda_cube``         -- the n = 0 integrals of lambda_{g-1}^3.

Each closed form ships with an independent recursion solver
(``lambda_g_solver`` / ``lambda_g_gm1_solver``) that only ever uses the
constraint recursion together with the string/dilaton identities and the
one-point base value, never the closed formula.  Agreement of the two routes
is one of the package's acceptance gates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from typing import Dict, Iterable, List, Sequence, Tuple

from .combinat import (
    LAMBDA_G_GRADING,
    LAMBDA_GG_GRADING,
    LAMBDA_GM1_GRADING,
    LAMBDA_GM2_GRADING,
    bernoulli,
    double_factorial,
    family_key,
    harmonic,
    linear_block,
    lowerings,
    multinomial,
    runs,
    split_block,
)
from .errors import DomainError
from .psi import psi_or_zero
from .series1d import b_closed_form
from .store import (
    TAG_LAMBDA_G,
    TAG_LAMBDA_G_GM1,
    TAG_LAMBDA_GM1,
    lookup,
    record,
    register_memo,
)

__all__ = [
    "b_constant",
    "c_constant",
    "gg_const",
    "lambda_g",
    "lambda_g_solver",
    "lambda_g_gm1",
    "lambda_g_gm1_solver",
    "lambda_gm1",
    "lambda_cube",
    "lambda_g_or_zero",
    "lambda_g_gm1_or_zero",
    "lambda_g_gm2_or_none",
    "kappa_lambda_integral",
    "hodge_table",
]

Key = Tuple[int, ...]


def _canon(ks: Sequence[int]) -> Key:
    return tuple(sorted(ks, reverse=True))


# ---------------------------------------------------------------------------
# genus constants


@lru_cache(maxsize=None)
def b_constant(g: int) -> Fraction:
    """One-point constant of the lambda_g family (Bernoulli closed form)."""
    return b_closed_form(g)


def c_constant(g: int) -> Fraction:
    """One-point constant of the lambda_{g-1} family:

    c_g = H_{2g-1} b_g - (1/2) sum_{g1+g2=g, gi>=1}
            (2g1-1)! (2g2-1)! / (2g-1)! * b_{g1} b_{g2}.

    The quadratic sum runs over ordered pairs with g1, g2 >= 1: the factorial
    weight is undefined at gi = 0 and genus-0 one-point terms vanish.
    """
    if g < 1:
        raise DomainError("g must be >= 1")
    total = harmonic(2 * g - 1) * b_constant(g)
    for g1 in range(1, g):
        g2 = g - g1
        w = Fraction(factorial(2 * g1 - 1) * factorial(2 * g2 - 1), factorial(2 * g - 1))
        total -= Fraction(1, 2) * w * b_constant(g1) * b_constant(g2)
    return total


@lru_cache(maxsize=None)
def gg_const(g: int) -> Fraction:
    """One-point constant of the lambda_g lambda_{g-1} family:
    |B_{2g}| / (2^{2g-1} (2g-1)!! 2g)."""
    if g < 1:
        raise DomainError("g must be >= 1")
    return abs(bernoulli(2 * g)) / (
        2 ** (2 * g - 1) * double_factorial(2 * g - 1) * 2 * g
    )


register_memo(b_constant.cache_clear)
register_memo(gg_const.cache_clear)


def lambda_cube(g: int) -> Fraction:
    """Integral of lambda_{g-1}^3 over the unpointed moduli space, g >= 2."""
    if g < 2:
        raise DomainError("g must be >= 2")
    return (
        Fraction(1, factorial(2 * g - 2))
        * (abs(bernoulli(2 * g - 2)) / (2 * g - 2))
        * (abs(bernoulli(2 * g)) / (2 * g))
    )


# ---------------------------------------------------------------------------
# lambda_g family


def lambda_g(g: int, ks: Sequence[int]) -> Fraction:
    """<tau_{k1}...tau_{kn} | lambda_g>_g by the closed multinomial form."""
    key = family_key(g, ks, LAMBDA_G_GRADING, nmin=1, strict=True)
    return Fraction(0) if key is None else _lambda_g(g, key)


def _lambda_g(g: int, key: Key) -> Fraction:
    n = len(key)
    cached = lookup(TAG_LAMBDA_G, (g, key))
    if cached is not None:
        return cached
    val = multinomial(2 * g + n - 3, key) * b_constant(g)
    return record(TAG_LAMBDA_G, (g, key), val)


def lambda_g_or_zero(g: int, ks: Iterable[int]) -> Fraction:
    key = family_key(g, ks, LAMBDA_G_GRADING, nmin=1)
    return Fraction(0) if key is None else _lambda_g(g, key)


_lambda_g_rec: Dict[Tuple[int, Key], int] = {}
register_memo(_lambda_g_rec.clear)


def lambda_g_solver(g: int, ks: Sequence[int]) -> Fraction:
    """Same values as :func:`lambda_g`, but via the constraint recursion only.

    Induction on n from the one-point base (g > 0) or the three-point genus-0
    base, using the string identity for zero exponents and the top-insertion
    reduction

        <tau_{k+1} tau_{k0} K> = C(k0+k+1, k0) <tau_{k0+k} K>
                                + sum_i C(k_i+k, k_i-1) <tau_{k0} .. k_i+k .. K>

    for a largest exponent k+1 >= 2.  Never consults the closed form.  Every
    step keeps the genus, so the recursion carries the integer
    N = value / b_g, with base N = 1 at the one-point key and at (0, 0, 0),
    and b_g (b_0 = 1) enters once, here.
    """
    key = family_key(g, ks, LAMBDA_G_GRADING, nmin=1, strict=True)
    return Fraction(0) if key is None else _lg_rec(g, key) * b_constant(g)


def _lg_rec(g: int, key: Key) -> int:
    # key meets the grading, and so do all keys the steps below reach
    cached = _lambda_g_rec.get((g, key))
    if cached is not None:
        return cached
    if len(key) == 1 or g == 0 and len(key) == 3:  # the base keys
        val = 1
    elif key[-1] == 0:
        val = sum(c * _lg_rec(g, low) for _, c, low in lowerings(key[:-1]))
    else:
        k = key[0] - 1  # >= 1: an all-ones multiset cannot meet the grading
        k0 = key[1]
        rest = key[2:]
        val = comb(k0 + k + 1, k0) * _lg_rec(g, (k0 + k,) + rest)
        for ki, c, i in runs(rest):
            others = rest[:i] + rest[i + 1 :]
            val += c * comb(ki + k, ki - 1) * _lg_rec(g, _canon((k0, ki + k) + others))
    _lambda_g_rec[(g, key)] = val
    return val


# ---------------------------------------------------------------------------
# lambda_g lambda_{g-1} family


def lambda_g_gm1(g: int, ks: Sequence[int]) -> Fraction:
    """<tau_{k1}...tau_{kn} | lambda_g lambda_{g-1}>_g, closed form.

    For all exponents positive:

        (2g+n-3)! (2g-1)!! / ((2g-1)! prod (2k_i-1)!!) * gg_const(g);

    zero exponents are removed by the string identity first.
    """
    key = family_key(g, ks, LAMBDA_GG_GRADING, gmin=1, nmin=1, strict=True)
    return Fraction(0) if key is None else _lambda_g_gm1(g, key)


def _lambda_g_gm1(g: int, key: Key) -> Fraction:
    n = len(key)
    cached = lookup(TAG_LAMBDA_G_GM1, (g, key))
    if cached is not None:
        return cached
    if key[-1] == 0 and n > 1:
        val = sum(c * _lambda_g_gm1(g, low) for _, c, low in lowerings(key[:-1]))
    else:
        val = _gg_closed(g, key)
    return record(TAG_LAMBDA_G_GM1, (g, key), val)


def _gg_closed(g: int, key: Key) -> Fraction:
    n = len(key)
    denom = factorial(2 * g - 1)
    for k in key:
        denom *= double_factorial(2 * k - 1)
    return (
        Fraction(factorial(2 * g + n - 3) * double_factorial(2 * g - 1), denom)
        * gg_const(g)
    )


def lambda_g_gm1_or_zero(g: int, ks: Iterable[int]) -> Fraction:
    key = family_key(g, ks, LAMBDA_GG_GRADING, gmin=1, nmin=1)
    return Fraction(0) if key is None else _lambda_g_gm1(g, key)


_lambda_gg_rec: Dict[Tuple[int, Key], int] = {}
register_memo(_lambda_gg_rec.clear)


def lambda_g_gm1_solver(g: int, ks: Sequence[int]) -> Fraction:
    """Oracle for :func:`lambda_g_gm1` via the double-factorial recursion.

    Base <tau_{g-1} | lambda_g lambda_{g-1}> = gg_const(g); zero exponents go
    through the string identity, an all-ones multiset through the dilaton
    identity, and a largest exponent k+1 >= 2 through

        <tau_{k+1} tau_{k0} K> =
            (2k+2k0+1)!! / ((2k+1)!! (2k0-1)!!) <tau_{k0+k} K>
          + sum_i (2k+2k_i-1)!! / ((2k+1)!! (2k_i-3)!!) <tau_{k0} .. k_i+k .. K>.

    Every step keeps the genus and the double-factorial ratios telescope, so
    the recursion carries the integer M = value * prod (2k_i-1)!! / gg_const(g):
    base (2g-3)!!; the string step sums (2k_i-1) M(k_i lowered); the dilaton
    step is (2g-3+n) M(K) for a key (1, K); the top step is
    (2k+2k0+1) M(k0+k, K) + sum_i (2k_i-1) M(k0, k_i+k, K without k_i).
    """
    key = family_key(g, ks, LAMBDA_GG_GRADING, gmin=1, nmin=1, strict=True)
    if key is None:
        return Fraction(0)
    scale = prod(double_factorial(2 * k - 1) for k in key)
    return Fraction(_gg_rec(g, key), scale) * gg_const(g)


def _gg_rec(g: int, key: Key) -> int:
    # key meets the grading, and so do all keys the steps below reach
    cached = _lambda_gg_rec.get((g, key))
    if cached is not None:
        return cached
    n = len(key)
    if n == 1:
        val = double_factorial(2 * g - 3)  # key == (g-1,) by the grading
    elif key[-1] == 0:
        val = sum(
            c * (2 * v - 1) * _gg_rec(g, low) for v, c, low in lowerings(key[:-1])
        )
    elif key[0] == 1:
        val = (2 * g - 3 + n) * _gg_rec(g, key[1:])
    else:
        k = key[0] - 1  # >= 1
        k0 = key[1]  # >= 1 after string reduction
        rest = key[2:]
        val = (2 * k + 2 * k0 + 1) * _gg_rec(g, (k0 + k,) + rest)
        for ki, c, i in runs(rest):
            others = rest[:i] + rest[i + 1 :]
            val += c * (2 * ki - 1) * _gg_rec(g, _canon((k0, ki + k) + others))
    _lambda_gg_rec[(g, key)] = val
    return val


# ---------------------------------------------------------------------------
# lambda_{g-1} family (best effort)


def lambda_gm1(g: int, ks: Sequence[int]) -> Fraction:
    """<tau_{k1}...tau_{kn} | lambda_{g-1}>_g.

    No closed form is known.  n = 1 returns the constant c_g; otherwise zero
    and one exponents are removed by string/dilaton and a top insertion is
    removed by coefficient extraction from the curve constraint relations,
    which expresses it through lambda_{g-1} values with fewer insertions plus
    known lambda_g values.  One of these always applies: once no exponent is
    0 or 1, the top one is at least 2.
    """
    key = family_key(g, ks, LAMBDA_GM1_GRADING, gmin=1, nmin=1, strict=True)
    return Fraction(0) if key is None else _gm1(g, key)


def _gm1(g: int, key: Key) -> Fraction:
    n = len(key)
    if g == 1:
        # lambda_0 = 1: these are pure psi integrals (same grading)
        return psi_or_zero(1, key)
    cached = lookup(TAG_LAMBDA_GM1, (g, key))
    if cached is not None:
        return cached
    if n == 1:
        val = c_constant(g)  # the grading forces k = 2g-1
    elif key[-1] == 0:
        val = sum(c * _gm1(g, low) for _, c, low in lowerings(key[:-1]))
    elif key[-1] == 1:
        val = (2 * g - 2 + n - 1) * _gm1(g, key[:-1])
    else:  # key[0] >= key[-1] >= 2
        (lead, _), partial = _xcurve_partial(g, key[0] - 1, key[1:])
        val = partial / -lead
    return record(TAG_LAMBDA_GM1, (g, key), val)


def _gm1_or_zero(g: int, ks: Iterable[int]) -> Fraction:
    key = family_key(g, ks, LAMBDA_GM1_GRADING, gmin=1, nmin=1)
    return Fraction(0) if key is None else _gm1(g, key)


def _xcurve_partial(
    g: int, k: int, derivs: Key
) -> Tuple[Tuple[Fraction, Key], Fraction]:
    """The derivative of the curve x-constraint split into its leading term
    -[1]^k_0 <tau_{k+1} derivs | lambda_{g-1}>, as (coefficient, key), and
    the sum of all other terms: _gm1 solves x = 0 for the leading integral,
    and constraints.x_curve adds the two back together."""
    lead, *linear = linear_block(k, 0, 0, derivs)
    total = Fraction(0)
    for c, key in linear:
        total += c * _gm1_or_zero(g, key)
    for c, key in linear_block(k, 1, 0, derivs):
        total -= c * lambda_g_or_zero(g, key)
    for w, left, right, g1 in split_block(k, 1, 0, derivs, g, LAMBDA_G_GRADING):
        total -= w * lambda_g_or_zero(g1, left) * lambda_g_or_zero(g - g1, right)
    return lead, total


# ---------------------------------------------------------------------------
# lambda_g lambda_{g-2} family (best effort, used by the surface constraints)


def lambda_g_gm2_or_none(g: int, ks: Iterable[int]):
    """Value of <tau... | lambda_g lambda_{g-2}>_g when determinable, else None.

    g = 1 gives 0 (lambda_{-1} = 0); g = 2 reduces to the lambda_g family
    (lambda_0 = 1).  No closed form is known beyond that.
    """
    key = family_key(g, ks, LAMBDA_GM2_GRADING, gmin=1, nmin=1)
    if key is None or g == 1:
        return Fraction(0)
    if g == 2:
        return lambda_g_or_zero(2, key)
    return None


# ---------------------------------------------------------------------------
# kappa classes


def kappa_lambda_integral(g: int, indices: Sequence[int]) -> Fraction:
    """Integral of kappa_{i1}...kappa_{im} lambda_g lambda_{g-1} over the
    unpointed genus-g moduli space.

    Pushing forward psi_1^{i1+1}...psi_m^{im+1} from the m-pointed space
    gives the sum over permutations of the indices of one kappa per cycle
    (indexed by the cycle sum).  Its inverse sums over set partitions P of
    the indices with weight (-1)^{m-|P|} alone (as 1 - e^{-x} inverts
    -log(1 - x)) of the psi-side values with one insertion k_B + 1 per
    block B, k_B the block sum.
    """
    if g < 1:
        raise DomainError("g must be >= 1")
    idx = list(indices)
    if any(i < 1 for i in idx):
        raise DomainError("kappa indices must be >= 1")
    if sum(idx) != g - 2:
        return Fraction(0)
    total = Fraction(0)
    for part in _set_partitions(list(range(len(idx)))):
        ks = [sum(idx[i] for i in block) + 1 for block in part]
        total += (-1) ** (len(idx) - len(part)) * lambda_g_gm1_or_zero(g, ks)
    return total


def _set_partitions(items: List[int]):
    if not items:
        yield []
        return
    head, tail = items[0], items[1:]
    for sub in _set_partitions(tail):
        # place head into each block or alone
        for i in range(len(sub)):
            yield [sorted([head] + sub[i])] + [b for j, b in enumerate(sub) if j != i]
        yield [[head]] + sub


# ---------------------------------------------------------------------------
# table emitter


def hodge_table(gmax: int) -> List[Tuple[int, Fraction, Fraction]]:
    """Rows (g, b_g, c_g) for g = 1..gmax."""
    if gmax < 1:
        raise DomainError("gmax must be >= 1")
    return [(g, b_constant(g), c_constant(g)) for g in range(1, gmax + 1)]
