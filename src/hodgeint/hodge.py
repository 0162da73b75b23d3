"""Integrals of lambda classes against psi classes.

Five families are covered, named by the lambda-class factor paired with the
psi monomial:

* ``lambda_g``            -- closed multinomial form, genus constant b_g;
* ``lambda_g_gm1``        -- lambda_g lambda_{g-1}, closed double-factorial form;
* ``lambda_gm1``          -- lambda_{g-1} alone, no closed form is known; values
                             come from the n = 1 constants c_g and the curve
                             constraint relations;
* ``lambda_g_gm2_or_zero`` -- lambda_g lambda_{g-2}, no closed form is known
                             beyond g = 2; values are solved from the surface
                             constraint relations, one-point keys included;
* ``lambda_cube``         -- the n = 0 integrals of lambda_{g-1}^3.

Each closed form ships with an independent recursion solver
(``lambda_g_solver`` / ``lambda_g_gm1_solver``) that only ever uses the
constraint recursion together with the string/dilaton identities and the
one-point base value, never the closed formula.  Agreement of the two routes
is one of the package's acceptance gates.  Both routes, and the lambda_{g-1}
solve, sum integers and build one Fraction a value: N = value / b_g
(lambda_g), M = value * prod (2k_i-1)!! / gg_const(g) (lambda_g
lambda_{g-1}), and lambda_{g-1} numerators over one common denominator.

The lambda classes pull back along the forgetful map, so every family obeys
string and dilaton with the factors of pure psi and takes both steps from
:func:`combinat.string_dilaton`, each term weighted by w(v)/w(v-1) for the w(k)
it carries per insertion: 2v - 1 for M (w(k) = (2k-1)!!), else 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod
from typing import Dict, Iterable, List, Sequence, Tuple

from .combinat import (
    LAMBDA_G_GRADING,
    LAMBDA_GG_GRADING,
    LAMBDA_GM1_GRADING,
    LAMBDA_GM2_GRADING,
    PSI_GRADING,
    bernoulli,
    double_factorial,
    family_key,
    harmonic,
    linear_block,
    multinomial,
    runs,
    split_block,
    string_dilaton,
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
    "lambda_g_gm2_or_zero",
    "kappa_lambda_integral",
    "hodge_table",
]

Key = Tuple[int, ...]
Half = Fraction(1, 2)


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
# lambda_g family


def lambda_g(g: int, ks: Sequence[int]) -> Fraction:
    """<tau_{k1}...tau_{kn} | lambda_g>_g by the closed multinomial form."""
    key = family_key(g, ks, LAMBDA_G_GRADING, nmin=1, strict=True)
    return Fraction(0) if key is None else _lambda_g(g, key)


def _lambda_g(g: int, key: Key) -> Fraction:
    v = lookup(TAG_LAMBDA_G, (g, key))
    return record(TAG_LAMBDA_G, (g, key), _lg_value(g, key)) if v is None else v


def _lg_value(g: int, key: Key) -> Fraction:
    b = b_constant(g)
    return Fraction(multinomial(2 * g + len(key) - 3, key) * b.numerator, b.denominator)


def lambda_g_or_zero(g: int, ks: Iterable[int]) -> Fraction:
    key = family_key(g, ks, LAMBDA_G_GRADING, nmin=1)
    return Fraction(0) if key is None else _lambda_g(g, key)


# the solvers' integers by key alone: the grading fixes the genus
_lambda_g_rec: Dict[Key, int] = {}
_lambda_gg_rec: Dict[Key, int] = {}
register_memo(_lambda_g_rec.clear)
register_memo(_lambda_gg_rec.clear)


def lambda_g_solver(g: int, ks: Sequence[int]) -> Fraction:
    """Same values as :func:`lambda_g`, but via the constraint recursion only.

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
    key = family_key(g, ks, LAMBDA_G_GRADING, nmin=1, strict=True)
    if key is None:
        return Fraction(0)
    b = b_constant(g)
    return Fraction(_lg_rec(g, key) * b.numerator, b.denominator)


def _lg_rec(g: int, key: Key) -> int:
    # key meets the grading, and so do all keys the steps below reach
    cached = _lambda_g_rec.get(key)
    if cached is not None:
        return cached
    if len(key) == 1 or key == (0, 0, 0):  # the base keys
        val = 1
    elif key[-1] <= 1:
        val = sum(c * _lg_rec(g, low) for _, c, low in string_dilaton(g, key))
    else:
        k = key[0] - 1  # >= 1
        k0 = key[1]
        rest = key[2:]
        val = comb(k0 + k + 1, k0) * _lg_rec(g, (k0 + k,) + rest)
        for ki, c, i in runs(rest):
            others = rest[:i] + rest[i + 1 :]
            val += c * comb(ki + k, ki - 1) * _lg_rec(g, _canon((k0, ki + k) + others))
    _lambda_g_rec[key] = val
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
    v = lookup(TAG_LAMBDA_G_GM1, (g, key))
    if v is None:  # recorded, so the memo of M drops it
        v = record(TAG_LAMBDA_G_GM1, (g, key), _gg_value(g, key))
        _gg_closed_memo.pop(key, None)
    return v


def _gg_value(g: int, key: Key) -> Fraction:
    p, q = _gg_ratio(g, key)
    return Fraction(_gg_closed(g, key) * p, q)


def _gg_ratio(g: int, key: Key) -> Tuple[int, int]:
    c = gg_const(g)  # value / M = gg_const(g) / prod (2k_i-1)!!
    return c.numerator, c.denominator * prod(double_factorial(2 * k - 1) for k in key)


# M of the keys with two zeros or more reached and not in the table (by key)
_gg_closed_memo: Dict[Key, int] = {}
register_memo(_gg_closed_memo.clear)


def _gg_closed(g: int, key: Key) -> int:
    # M: (2g+n-3)! (2g-1)!! / (2g-1)! = (2g+n-3)! / (2^{g-1} (g-1)!) with no
    # zero, and string steps sum_v c (2v-1) M(v lowered).  One zero keeps the
    # base: its step's weights sum to 2(g-2+n) - (n-1) = base(n) / base(n-1).
    n = len(key)
    if n < 3 or key[-2]:
        return factorial(2 * g + n - 3) // (factorial(g - 1) << g - 1)
    val = _gg_closed_memo.get(key)
    if val is None:
        known = lookup(TAG_LAMBDA_G_GM1, (g, key))
        if known is not None:  # a recorded key: M from its value
            p, q = _gg_ratio(g, key)
            return known.numerator * q // (known.denominator * p)
        val = sum(c * (2 * v - 1) * _gg_closed(g, k) for v, c, k in string_dilaton(g, key))
        _gg_closed_memo[key] = val
    return val


def lambda_g_gm1_or_zero(g: int, ks: Iterable[int]) -> Fraction:
    key = family_key(g, ks, LAMBDA_GG_GRADING, gmin=1, nmin=1)
    return Fraction(0) if key is None else _lambda_g_gm1(g, key)


def lambda_g_gm1_solver(g: int, ks: Sequence[int]) -> Fraction:
    """Oracle for :func:`lambda_g_gm1` via the double-factorial recursion.

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
    key = family_key(g, ks, LAMBDA_GG_GRADING, gmin=1, nmin=1, strict=True)
    if key is None:
        return Fraction(0)
    c = gg_const(g)
    scale = prod(double_factorial(2 * k - 1) for k in key)
    return Fraction(_gg_rec(g, key) * c.numerator, scale * c.denominator)


def _gg_rec(g: int, key: Key) -> int:
    # key meets the grading, and so do all keys the steps below reach
    cached = _lambda_gg_rec.get(key)
    if cached is not None:
        return cached
    if len(key) == 1:
        val = double_factorial(2 * g - 3)  # key == (g-1,) by the grading
    elif key[-1] <= 1:
        val = sum(c * (2 * v - 1) * _gg_rec(g, k) for v, c, k in string_dilaton(g, key))
    else:
        k = key[0] - 1  # >= 1
        k0 = key[1]  # >= 2 after string and dilaton reduction
        rest = key[2:]
        val = (2 * k + 2 * k0 + 1) * _gg_rec(g, (k0 + k,) + rest)
        for ki, c, i in runs(rest):
            others = rest[:i] + rest[i + 1 :]
            val += c * (2 * ki - 1) * _gg_rec(g, _canon((k0, ki + k) + others))
    _lambda_gg_rec[key] = val
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
    if g == 1:
        # lambda_0 = 1: these are pure psi integrals (same grading)
        return psi_or_zero(1, key)
    cached = lookup(TAG_LAMBDA_GM1, (g, key))
    if cached is not None:
        return cached
    if len(key) == 1:
        val = c_constant(g)  # the grading forces k = 2g-1
    elif key[-1] <= 1:
        val = _dot([(c, _gm1(g, low)) for _, c, low in string_dilaton(g, key)])
    else:  # key[0] >= key[-1] >= 2
        (lead, _), partial = _xcurve_partial(g, key[0] - 1, key[1:])
        val = partial / -lead
    return record(TAG_LAMBDA_GM1, (g, key), val)


def _gm1_or_zero(g: int, ks: Iterable[int]) -> Fraction:
    key = family_key(g, ks, LAMBDA_GM1_GRADING, gmin=1, nmin=1)
    return Fraction(0) if key is None else _gm1(g, key)


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
    return lead, _dot(terms, 2)


def _dot(terms: List[Tuple[int, Fraction]], s: int = 1) -> Fraction:
    # sum c x / s over the terms, summed over one common denominator
    d = lcm(*(x.denominator for _, x in terms))
    n = sum(c * x.numerator * (d // x.denominator) for c, x in terms)
    return Fraction(n, s * d)


# ---------------------------------------------------------------------------
# lambda_g lambda_{g-2} family (solved from the surface constraints)


def lambda_g_gm2_or_zero(g: int, ks: Iterable[int]) -> Fraction:
    """<tau_{k1}...tau_{kn} | lambda_g lambda_{g-2}>_g, 0 off the family.

    g = 1 gives 0 (lambda_{-1} = 0); g = 2 reduces to the lambda_g family
    (lambda_0 = 1).  Beyond that no closed form is known: zero and one
    exponents are removed by string/dilaton, and a top insertion by solving
    the surface x-constraint for it, as lambda_{g-1} is solved from the curve
    one; every other unknown there has fewer insertions.
    """
    key = family_key(g, ks, LAMBDA_GM2_GRADING, gmin=1, nmin=1)
    if key is None or g == 1:
        return Fraction(0)
    return lambda_g_or_zero(2, key) if g == 2 else _gm2(g, key)


_gm2_memo: Dict[Tuple[int, Key], Fraction] = {}
register_memo(_gm2_memo.clear)


def _gm2(g: int, key: Key) -> Fraction:
    val = _gm2_memo.get((g, key))
    if val is not None:
        return val
    if key[-1] <= 1:
        val = _dot([(c, _gm2(g, low)) for _, c, low in string_dilaton(g, key)])
    else:  # key[0] >= key[-1] >= 2; the one-point key is solved too
        (lead, _), partial = _xsurface_partial(g, key[0] - 1, key[1:])
        val = partial / -lead
    _gm2_memo[(g, key)] = val
    return val


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
