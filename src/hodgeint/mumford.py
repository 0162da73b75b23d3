"""The lambda-class ring, obstruction-bundle Euler classes, and degree-zero
descendent invariants.

The Chern classes lambda_1..lambda_g of the rank-g Hodge bundle satisfy the
relations extracted from c_t(E) c_{-t}(E) = 1 (in particular lambda_g^2 = 0
and lambda_{g-1}^2 = 2 lambda_g lambda_{g-2}).  :class:`LambdaRingElem` keeps
expressions in normal form modulo these relations, with coefficients that are
polynomials in the Chern classes c_1..c_r of a target variety.

In grevlex order with lambda_1 > ... > lambda_g the leading monomial of the
m-th relation is lambda_m^2.  These leading monomials are pairwise coprime, so
by Buchberger's first criterion the relations already form a Groebner basis:
the normal form is reached by rewriting squares alone and is square-free.

The Euler class of the obstruction bundle (the external tensor product of the
target's tangent bundle with the dual Hodge bundle) is computed by the
splitting principle and symmetrized back into Chern classes; pairing it with
descendent insertions gives the degree-zero Gromov-Witten evaluator
:func:`degree0_gw`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from typing import Dict, NamedTuple, Sequence, Tuple

from .combinat import family_key, grading, reduction
from .errors import DomainError, check_points
from .hodge import FAMILIES, lambda_cube
from .store import register_memo

__all__ = [
    "LambdaRingElem",
    "reduce_lambda_monomial",
    "euler_class",
    "euler_class_genus1",
    "degree0_gw",
]

LamKey = Tuple[int, ...]  # lambda indices, sorted descending, each in 1..g
ChernKey = Tuple[int, ...]  # chern indices, sorted, each in 1..r
CoeffPoly = Dict[ChernKey, Fraction]  # int coefficients are accepted too
LamPoly = Dict[LamKey, int]


def _lam_key(indices) -> LamKey:
    """Key of a product of lambda classes; lambda_0 = 1 drops out."""
    return tuple(sorted((i for i in indices if i), reverse=True))


@lru_cache(maxsize=None)
def _square_rule(g: int, m: int) -> Tuple[Tuple[int, LamKey], ...]:
    """lambda_m^2 - (-1)^m rel_m, the rewrite of the leading monomial
    lambda_m^2 of the m-th relation sum_{i+j=2m} (-1)^i lambda_i lambda_j,
    as ((coeff, key), ...); built alone, without the other relations."""
    rule: LamPoly = {}
    for i in range(max(0, 2 * m - g), min(2 * m, g) + 1):
        key = _lam_key((i, 2 * m - i))
        if key != (m, m):
            rule[key] = rule.get(key, 0) - (-1) ** (m + i)
    return tuple((c, key) for key, c in rule.items())


@lru_cache(maxsize=None)
def reduce_lambda_monomial(g: int, key: LamKey) -> Tuple[Tuple[int, LamKey], ...]:
    """Normal form of a product of lambda classes as ((coeff, monomial), ...),
    with integer coefficients.

    lambda_0 = 1 drops out, and an index outside 0..g makes the product zero;
    monomials of weighted degree above the dimension of the coarse space the
    classes live on (3g - 3 for g >= 2, 1 for g = 1) are dropped.  The
    relations are homogeneous, so a product above that degree is dropped
    before any rewriting.
    """
    if any(i > g or i < 0 for i in key):
        return ()
    key = _lam_key(key)
    if sum(key) > max(3 * g - 3, 1):
        return ()
    p = next((p for p in range(len(key) - 1) if key[p] == key[p + 1]), None)
    if p is None:
        return ((1, key),)
    rest = key[:p] + key[p + 2 :]
    acc: LamPoly = {}
    for coeff, tail in _square_rule(g, key[p]):
        for c, red in reduce_lambda_monomial(g, _lam_key(rest + tail)):
            acc[red] = acc.get(red, 0) + coeff * c
    return tuple((c, k) for k, c in sorted(acc.items()) if c)


register_memo(_square_rule.cache_clear)
register_memo(reduce_lambda_monomial.cache_clear)


class LambdaRingElem(NamedTuple):
    """A reduced element: {lambda monomial: {chern monomial: coefficient}}."""

    g: int
    r: int
    terms: Tuple[Tuple[LamKey, Tuple[Tuple[ChernKey, Fraction], ...]], ...]

    @classmethod
    def build(
        cls, g: int, r: int, raw: Dict[LamKey, CoeffPoly]
    ) -> "LambdaRingElem":
        """Reduce and normalize a raw {lam key: chern poly} mapping; sums
        stay ints for int input, and each kept coefficient is a Fraction."""
        acc: Dict[LamKey, CoeffPoly] = {}
        for lk, cpoly in raw.items():
            for coeff, red in reduce_lambda_monomial(g, tuple(sorted(lk, reverse=True))):
                dest = acc.setdefault(red, {})
                for ck, cval in cpoly.items():
                    ck = tuple(sorted(ck))
                    if sum(ck) <= r:  # else chern degree beyond the target dimension
                        dest[ck] = dest.get(ck, 0) + coeff * cval
        terms = (
            (lk, tuple((ck, Fraction(c)) for ck, c in sorted(cp.items()) if c))
            for lk, cp in sorted(acc.items())
        )
        return cls(g, r, tuple((lk, cp) for lk, cp in terms if cp))

    def is_zero(self) -> bool:
        return not self.terms

    def pretty(self) -> str:
        """Canonical text form, e.g. ``(-1)*c1*lam2*lam1``."""
        if not self.terms:
            return "0"
        parts = []
        for lk, cp in self.terms:
            for ck, coeff in cp:
                factors = [f"({coeff})"]
                factors.extend(f"c{i}" for i in ck)
                factors.extend(f"lam{i}" for i in lk)
                parts.append("*".join(factors))
        return " + ".join(parts)


# The monomial symmetric polynomials m_mu(x_1..x_r), |mu| <= 3, in the
# elementary symmetric ones c_1..c_3: {mu: {chern key: coefficient}}.
_MONOMIAL_IN_CHERN: Dict[Tuple[int, ...], CoeffPoly] = {
    (): {(): 1},
    (1,): {(1,): 1},
    (2,): {(1, 1): 1, (2,): -2},
    (1, 1): {(2,): 1},
    (3,): {(1, 1, 1): 1, (1, 2): -3, (3,): 3},
    (2, 1): {(1, 2): 1, (3,): -3},
    (1, 1, 1): {(3,): 1},
}


def euler_class(r: int, g: int) -> LambdaRingElem:
    """Euler class of the obstruction bundle for a dimension-r target, g >= 2.

    By the splitting principle, with x_1..x_r the Chern roots of the tangent
    bundle, the class is

        prod_i sum_m (-1)^{g-m} x_i^m lambda_{g-m},

    truncated above x-degree r.  Its coefficient of m_mu(x), for mu padded
    with zeros to length r, is prod_j (-1)^{g-mu_j} lambda_{g-mu_j}; the
    table above turns m_mu into Chern classes, and the result is reduced.
    """
    if r < 1:
        raise DomainError("r must be >= 1")
    if r > 3:
        raise DomainError("the class vanishes for r > 3; use r in {1, 2, 3}")
    if g < 2:
        raise DomainError("g must be >= 2 (see euler_class_genus1)")
    raw: Dict[LamKey, CoeffPoly] = {}
    for mu, cpoly in _MONOMIAL_IN_CHERN.items():
        if sum(mu) > r or max(mu, default=0) > g:
            continue
        lam = [g - m for m in mu] + [g] * (r - len(mu))
        sign = (-1) ** (r * g - sum(mu))
        raw[_lam_key(lam)] = {ck: sign * c for ck, c in cpoly.items()}
    return LambdaRingElem.build(g, r, raw)


def euler_class_genus1(r: int) -> LambdaRingElem:
    """Genus-1 obstruction Euler class: c_r - c_{r-1} lambda_1 (c_0 = 1)."""
    if r < 1:
        raise DomainError("r must be >= 1")
    raw: Dict[LamKey, CoeffPoly] = {(): {(r,): 1}}
    cm1: ChernKey = () if r == 1 else (r - 1,)
    raw[(1,)] = {cm1: -1}
    return LambdaRingElem.build(1, r, raw)


# ---------------------------------------------------------------------------
# degree-zero descendents for projective-space targets


# <tau_{ks} | lambda_g lambda_{g-1} lambda_{g-2}> (lambda_2 lambda_1 for g = 2)
# for a descending key with sum(ks) = len(ks): the lambda part already has top
# degree, so a zero ends the key, or else every entry is 1, and the string and
# dilaton steps alone reduce it to the unpointed integral
_top_triple = reduction((0, 1), lambda g, ks: None if ks else lambda_cube(g) / 2, None)


def _moduli_integral(g: int, lam: LamKey, ks: Sequence[int]) -> Fraction:
    """Integral of psi^{ks} times the lambda monomial over the pointed moduli
    space, looked up in the known families."""
    offsets = tuple(g - i for i in lam)
    key = family_key(g, ks, grading(offsets))
    if key is None:
        return Fraction(0)
    top = (2, 1) if g == 2 else tuple(range(g, g - 3, -1))
    if g >= 2 and lam == top:
        return _top_triple(g, key)
    if not key:
        # only the top lambda monomial has a nonzero unpointed integral
        return Fraction(0)
    # every other monomial of the Euler classes (r <= 3) is a family's
    return next(row for row in FAMILIES.values() if row.offsets == offsets).rec.value(g, key)


def degree0_gw(r: int, g: int, insertions: Sequence[Tuple[int, int]]) -> Fraction:
    """Degree-zero descendent invariant <tau_{k1}(h^{a1}) ...>_{g,0} on P^r.

    Pairs the obstruction Euler class against the inserted classes on the
    target side and the matching psi-lambda integral on the moduli side; every
    lambda monomial of the Euler classes has a family, so a value always
    comes back.  Raises LimitError for more than MAX_POINTS insertions.
    """
    if g < 1:
        raise DomainError("g must be >= 1")
    if r < 1:
        raise DomainError("r must be >= 1")
    for a, k in insertions:
        if not (0 <= a <= r) or k < 0:
            raise DomainError("insertions must be (class power 0..r, level >= 0)")
    check_points(len(insertions))
    if g >= 2 and r > 3:
        return Fraction(0)  # the virtual class vanishes
    e = euler_class_genus1(r) if g == 1 else euler_class(r, g)
    ks = [k for _, k in insertions]
    adeg = sum(a for a, _ in insertions)
    total = Fraction(0)
    for lam, cpoly in e.terms:
        for ck, coeff in cpoly:
            # c_i = C(r+1, i) h^i on P^r, and only h^r integrates to 1
            if adeg + sum(ck) == r:
                xside = coeff * prod(comb(r + 1, i) for i in ck)
                total += xside * _moduli_integral(g, lam, ks)
    return total
