"""Integrals of lambda classes against psi classes.

The families are the rows of the family table :data:`FAMILIES`, psi's row
among them: lambda_g by a closed multinomial form (genus constant b_g),
lambda_g lambda_{g-1} by a closed double-factorial form, lambda_{g-1} (no
closed form known) from the one-point constants c_g and the curve constraint
relations, and lambda_g lambda_{g-2} (no closed form beyond g = 2) solved
from the surface constraint relations, one-point keys included.  Each row
gives a strict entry and an ``_or_zero`` entry for sums.  ``lambda_cube`` is
the n = 0 integral of lambda_{g-1}^3.

Each closed form ships with an independent recursion solver
(``lambda_g_solver`` / ``lambda_g_gm1_solver``) that only ever uses the
constraint recursion together with the string/dilaton identities and the
one-point base value, never the closed formula.  Agreement of the two routes
is one of the package's acceptance gates.  Both routes, and the lambda_{g-1}
solve, sum integers and build one Fraction a value: N = value / b_g
(lambda_g), M = value * prod (2k_i-1)!! / gg_const(g) (lambda_g
lambda_{g-1}), and lambda_{g-1} numerators over one common denominator.

The lambda classes pull back along the forgetful map, so every family obeys
string and dilaton with the factors of pure psi.  Each recursion is a
:func:`combinat.reduction`, which takes both steps under its weight rule
(w(v)/w(v-1) = 2v - 1 for M, whose w(k) is (2k-1)!!, else 1); a family
supplies its base and its top step.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial, lcm, prod
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .combinat import (
    LAMBDA_G_GRADING,
    LAMBDA_GG_GRADING,
    LAMBDA_GM1_GRADING,
    LAMBDA_GM2_GRADING,
    PSI_GRADING,
    Family,
    Key,
    bernoulli,
    double_factorial,
    harmonic,
    linear_block,
    multinomial,
    reduction,
    runs,
    split_block,
)
from .errors import DomainError
from .psi import PSI, psi_or_zero
from .series1d import b_closed_form
from .store import (
    TAG_LAMBDA_G,
    TAG_LAMBDA_G_GM1,
    TAG_LAMBDA_GM1,
    lookup,
    record,
    register_memo,
    tables,
)

__all__ = [
    "FAMILIES",
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
    "lambda_g_gm2_or_zero",
    "kappa_lambda_integral",
    "hodge_table",
]

Half = Fraction(1, 2)


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
    total, d = harmonic(2 * g - 1) * b_constant(g), 2 * factorial(2 * g - 1)
    for g1 in range(1, g):
        w = factorial(2 * g1 - 1) * factorial(2 * g - 2 * g1 - 1)
        total -= Fraction(w, d) * b_constant(g1) * b_constant(g - g1)
    return total


@lru_cache(maxsize=None)
def gg_const(g: int) -> Fraction:
    """One-point constant of the lambda_g lambda_{g-1} family:
    |B_{2g}| / (2^{2g-1} (2g-1)!! 2g)."""
    if g < 1:
        raise DomainError("g must be >= 1")
    return abs(bernoulli(2 * g)) / (4**g * double_factorial(2 * g - 1) * g)


register_memo(b_constant.cache_clear)
register_memo(gg_const.cache_clear)


def lambda_cube(g: int) -> Fraction:
    """Integral of lambda_{g-1}^3 over the unpointed moduli space, g >= 2."""
    if g < 2:
        raise DomainError("g must be >= 2")
    bb = abs(bernoulli(2 * g - 2) * bernoulli(2 * g))
    return bb / (factorial(2 * g - 2) * (2 * g - 2) * 2 * g)


# ---------------------------------------------------------------------------
# lambda_g family: a closed multinomial form, and a solver


def _lambda_g(g: int, key: Key) -> Fraction:
    v = lookup(TAG_LAMBDA_G, (g, key))
    return record(TAG_LAMBDA_G, (g, key), _lg_value(g, key)) if v is None else v


def _lg_value(g: int, key: Key) -> Fraction:
    b = b_constant(g)
    return Fraction(multinomial(2 * g + len(key) - 3, key) * b.numerator, b.denominator)


def _lg_solve(g: int, key: Key) -> Fraction:
    """lambda_g_solver: the values of :func:`lambda_g`, but via the constraint
    recursion only.

    Induction on n from the one-point base (g > 0) or the three-point genus-0
    base, using the string and dilaton identities for a trailing 0 or 1 and
    the top-insertion reduction

        <tau_{k+1} tau_{k0} K> = C(k0+k+1, k0) <tau_{k0+k} K>
                                + sum_i C(k_i+k, k_i-1) <tau_{k0} .. k_i+k .. K>

    for a largest exponent k+1 >= 2.  Never consults the closed form.  Every
    step keeps the genus, so the recursion carries the integer
    N = value / b_g, with base N = 1 at the one-point key and at (0, 0, 0),
    and b_g (b_0 = 1) enters once, here.
    """
    b = b_constant(g)
    return Fraction(_lg_rec(g, key) * b.numerator, b.denominator)


def _lg_top(g: int, key: Key) -> int:
    k, k0, rest = key[0] - 1, key[1], key[2:]  # k >= 1
    val = comb(k0 + k + 1, k0) * _lg_rec(g, (k0 + k,) + rest)
    for ki, c, i in runs(rest):
        others = rest[:i] + rest[i + 1 :]
        low = tuple(sorted((k0, ki + k) + others, reverse=True))
        val += c * comb(ki + k, ki - 1) * _lg_rec(g, low)
    return val


# N of the keys the solver has reached, from 1 at the one-point key and (0, 0, 0)
_lg_rec = reduction((0, 1), lambda g, key: 1 if len(key) == 1 or key == (0, 0, 0) else None,
                    _lg_top)


# ---------------------------------------------------------------------------
# lambda_g lambda_{g-1} family: a closed double-factorial form, and a solver
#
# For all exponents positive the closed form is
#     (2g+n-3)! (2g-1)!! / ((2g-1)! prod (2k_i-1)!!) * gg_const(g);
# zero exponents are removed by the string identity first.


def _lambda_g_gm1(g: int, key: Key) -> Fraction:
    v = lookup(TAG_LAMBDA_G_GM1, (g, key))
    return record(TAG_LAMBDA_G_GM1, (g, key), _gg_value(g, key)) if v is None else v


def _gg_value(g: int, key: Key) -> Fraction:
    # the value goes to the table, recorded here or preloaded by the cache
    # after this check, so the memo of M drops the key
    p, q = _gg_ratio(g, key)
    m = _gg_closed(g, key)
    _gg_closed.memo.pop((g, key), None)
    return Fraction(m * p, q)


def _gg_ratio(g: int, key: Key) -> Tuple[int, int]:
    c = gg_const(g)  # value / M = gg_const(g) / prod (2k_i-1)!!
    return c.numerator, c.denominator * prod(double_factorial(2 * k - 1) for k in key)


def _gg_closed_base(g: int, key: Key) -> Optional[int]:
    # M: (2g+n-3)! (2g-1)!! / (2g-1)! = (2g+n-3)! / (2^{g-1} (g-1)!) with no
    # zero.  One zero keeps the base: its string step's weights sum to
    # 2(g-2+n) - (n-1) = base(n) / base(n-1).  A recorded key: M from its value.
    n = len(key)
    if n < 3 or key[-2]:
        return factorial(2 * g + n - 3) // (factorial(g - 1) << g - 1)
    known = lookup(TAG_LAMBDA_G_GM1, (g, key))
    if known is None:
        return None
    p, q = _gg_ratio(g, key)
    return known.numerator * q // (known.denominator * p)


# M of the keys with two zeros or more reached and not in the table; a key
# ending above 1 has no zero, so no top step is needed
_gg_closed = reduction((2, -1), _gg_closed_base, None)


def _gg_solve(g: int, key: Key) -> Fraction:
    """lambda_g_gm1_solver: an oracle for :func:`lambda_g_gm1` via the
    double-factorial recursion.

    Base <tau_{g-1} | lambda_g lambda_{g-1}> = gg_const(g); a trailing 0 or 1
    goes through the string or dilaton identity, and otherwise a largest
    exponent k+1 >= 2 through

        <tau_{k+1} tau_{k0} K> =
            (2k+2k0+1)!! / ((2k+1)!! (2k0-1)!!) <tau_{k0+k} K>
          + sum_i (2k+2k_i-1)!! / ((2k+1)!! (2k_i-3)!!) <tau_{k0} .. k_i+k .. K>.

    Every step keeps the genus and the double-factorial ratios telescope, so
    the recursion carries the integer M = value * prod (2k_i-1)!! / gg_const(g):
    base (2g-3)!!; the top step is
    (2k+2k0+1) M(k0+k, K) + sum_i (2k_i-1) M(k0, k_i+k, K without k_i).
    """
    c = gg_const(g)
    scale = prod(double_factorial(2 * k - 1) for k in key)
    return Fraction(_gg_rec(g, key) * c.numerator, scale * c.denominator)


def _gg_top(g: int, key: Key) -> int:
    k, k0, rest = key[0] - 1, key[1], key[2:]  # k >= 1, k0 >= 2
    val = (2 * k + 2 * k0 + 1) * _gg_rec(g, (k0 + k,) + rest)
    for ki, c, i in runs(rest):
        others = rest[:i] + rest[i + 1 :]
        low = tuple(sorted((k0, ki + k) + others, reverse=True))
        val += c * (2 * ki - 1) * _gg_rec(g, low)
    return val


# M of the keys the solver has reached, from (2g-3)!! at the one-point key (g-1,)
_gg_rec = reduction((2, -1), lambda g, key: double_factorial(2 * g - 3) if len(key) == 1
                    else None, _gg_top)


# ---------------------------------------------------------------------------
# lambda_{g-1} family
#
# No closed form is known.  n = 1 gives the constant c_g, and g = 1 the pure
# psi integrals (lambda_0 = 1, same grading).  Zero and one exponents are
# removed by string/dilaton, and a top insertion by coefficient extraction
# from the curve constraint relations, which expresses it through
# lambda_{g-1} values with fewer insertions plus known lambda_g values.


def _gm1_base(g: int, key: Key) -> Optional[Fraction]:
    if g == 1:
        return psi_or_zero(1, key)
    v = lookup(TAG_LAMBDA_GM1, (g, key))
    if v is None and len(key) == 1:  # the grading forces k = 2g-1
        v = record(TAG_LAMBDA_GM1, (g, key), c_constant(g))
    return v


def _solve(split: Callable, g: int, key: Key) -> Fraction:
    # the top step of the solved families: the leading integral of x = 0,
    # from the other terms of the x-constraint split, which holds them
    (lead, _), rest = split(g, key[0] - 1, key[1:])
    return rest / -lead


def _xcurve_partial(g: int, k: int, derivs: Key) -> Tuple[Tuple[int, Key], Fraction]:
    """The derivative of the curve x-constraint split into its leading term
    -[1]^k_0 <tau_{k+1} derivs | lambda_{g-1}>, as (coefficient, key), and the
    sum of all other terms: _gm1 solves x = 0 for the leading integral, and
    constraints.x_curve adds the two back.  All terms share the leading one's
    grading, on which a lambda_g key K of genus h is stable with value
    multinomial(sum K; K) b_h: integer sums per h, scaled by b_h b_{g-h}."""
    lead, *linear = linear_block(k, 0, 0, derivs)
    # twice each term, as the split weights are twice the block's
    terms = [(2 * c, _gm1_or_zero(g, key)) for c, key in linear]
    if g >= 0 and k + sum(derivs) - len(derivs) == 2 * g - 2:
        lam = [0] * (g + 1)
        for c, key in linear_block(k, 1, 0, derivs):
            lam[g] -= 2 * c * multinomial(sum(key), key)
        for w, left, right, h in split_block(k, 1, 0, derivs, g, LAMBDA_G_GRADING):
            lam[h] -= w * multinomial(sum(left), left) * multinomial(sum(right), right)
        b = [b_constant(h) for h in range(g + 1)]
        terms += [(s, b[h] * b[g - h]) for h, s in enumerate(lam) if s]
    d = lcm(*(x.denominator for _, x in terms))  # the terms over one denominator
    return lead, Fraction(sum(c * x.numerator * (d // x.denominator) for c, x in terms), 2 * d)


_gm1 = reduction((0, 1), _gm1_base, partial(_solve, _xcurve_partial),
                 partial(record, TAG_LAMBDA_GM1))


# ---------------------------------------------------------------------------
# lambda_g lambda_{g-2} family (solved from the surface constraints)
#
# g = 1 gives 0 (lambda_{-1} = 0), and g = 2 the lambda_g family (lambda_0 =
# 1).  Beyond that no closed form is known: zero and one exponents are
# removed by string/dilaton, and a top insertion, the one-point key's too, by
# solving the surface x-constraint for it, as lambda_{g-1} is solved from the
# curve one; every other unknown there has fewer insertions.


def _gm2_base(g: int, key: Key) -> Optional[Fraction]:
    if g > 2:
        return None
    return Fraction(0) if g == 1 else _lambda_g(2, key)


def _gm2_slot(g: int, ks: Iterable[int]) -> Fraction:
    """The lambda_g lambda_{g-2} slot of the surface x-constraint.  At genus 1
    the lambda pair degenerates (lambda_{-1} = 0) and the slot holds twice the
    pure-descendent genus-1 series instead: the Noether relation
    c_1^2 + c_2 = 12 chi(O) folds the genus-1 Euler block of the partition
    function into the squared-Chern coefficient, and with this value the
    family vanishes at genus 1 as well."""
    return 2 * psi_or_zero(1, ks) if g == 1 else lambda_g_gm2_or_zero(g, ks)


def _xsurface_partial(g: int, k: int, derivs: Key) -> Tuple[Tuple[Fraction, Key], Fraction]:
    """The derivative of the surface x-constraint split into its leading term
    -[1/2]^k_0 <tau_{k+1} derivs | lambda_g lambda_{g-2}>, as (coefficient,
    key), and the sum of all other terms: _gm2 solves x = 0 for the leading
    integral, and constraints.x_surface adds the two back.  The coefficient
    is a product of half-integers, never 0."""
    lead, *linear = linear_block(k, 0, -Half, derivs)
    rest = sum((c * _gm2_slot(g, key) for c, key in linear), Fraction(0))
    for w, left, right, _ in split_block(k, 0, -Half, derivs, 0, PSI_GRADING):
        rest += w * psi_or_zero(0, left) * _gm2_slot(g, right)
    # the double derivative on the (1,1) block squares the lambda_g
    # lambda_{g-1} part of the exponent
    for w, left, right, g1 in split_block(k, 0, Half, derivs, g, LAMBDA_GG_GRADING):
        pair = lambda_g_gm1_or_zero(g1, left) * lambda_g_gm1_or_zero(g - g1, right)
        rest += Half * w * pair
    # the lambda_g lambda_{g-1} block (its exponent block carries a minus
    # sign, so the shifted-coordinate pair comes out +constant, -t_m)
    for c, key in linear_block(k, 1, -Half, derivs):
        rest -= c * lambda_g_gm1_or_zero(g, key)
    for w, left, right, _ in split_block(k, 1, -Half, derivs, 0, PSI_GRADING):
        rest -= w * psi_or_zero(0, left) * lambda_g_gm1_or_zero(g, right)
    return lead, rest


_gm2 = reduction((0, 1), _gm2_base, partial(_solve, _xsurface_partial))


# ---------------------------------------------------------------------------
# the family table: a row per family, read by the command line (its
# `lambda --class` letters), the cache (its closed forms), the verify sweep
# (its seeds and entries) and mumford (its lambda offsets).  The store tags
# name the cache records, so they stay in store.

FAMILIES: Dict[str, Family] = {
    row.name: row
    for row in (
        PSI,
        Family(TAG_LAMBDA_G, "g", (0,), LAMBDA_G_GRADING, 0, 1, _lambda_g, _lg_value,
               ((3, (4, 1, 1, 1)),), tables()[TAG_LAMBDA_G]).named(),
        Family(TAG_LAMBDA_G_GM1, "gg", (0, 1), LAMBDA_GG_GRADING, 1, 1, _lambda_g_gm1,
               _gg_value, ((3, (2, 1, 1)),), tables()[TAG_LAMBDA_G_GM1]).named(),
        Family(TAG_LAMBDA_GM1, "gm1", (1,), LAMBDA_GM1_GRADING, 1, 1, _gm1, None,
               ((3, (5, 1)),), tables()[TAG_LAMBDA_GM1]).named(),
        Family("lambda_g_gm2", "gm2", (0, 2), LAMBDA_GM2_GRADING, 1, 1, _gm2, None,
               ((3, (3, 1)), (3, (2, 2))), _gm2.memo).named(),
    )
}
# <tau_{k1}...tau_{kn} | lambda class>_g: the strict entries raise DomainError
# off the stable range, the or-zero ones give 0 there (see Family); a solver is
# the strict entry of its family with the solve as evaluator
lambda_g, lambda_g_or_zero = FAMILIES[TAG_LAMBDA_G].strict, FAMILIES[TAG_LAMBDA_G].or_zero
lambda_g_gm1 = FAMILIES[TAG_LAMBDA_G_GM1].strict
lambda_g_gm1_or_zero = FAMILIES[TAG_LAMBDA_G_GM1].or_zero
lambda_gm1, _gm1_or_zero = FAMILIES[TAG_LAMBDA_GM1].strict, FAMILIES[TAG_LAMBDA_GM1].or_zero
lambda_g_gm2_or_zero = FAMILIES["lambda_g_gm2"].or_zero
lambda_g_solver = FAMILIES[TAG_LAMBDA_G]._replace(evaluate=_lg_solve).named("lambda_g_solver").strict
lambda_g_gm1_solver = FAMILIES[TAG_LAMBDA_G_GM1]._replace(evaluate=_gg_solve).named(
    "lambda_g_gm1_solver").strict


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
