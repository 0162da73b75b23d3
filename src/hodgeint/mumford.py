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
from math import comb
from typing import Dict, NamedTuple, Sequence, Tuple

from .combinat import lowerings
from .errors import DomainError, UnderdeterminedError
from .hodge import (
    lambda_cube,
    lambda_g_gm1_or_zero,
    lambda_g_gm2_or_none,
    lambda_g_or_zero,
    lambda_gm1,
)
from .psi import psi_or_zero
from .store import register_memo

__all__ = [
    "LambdaRingElem",
    "mumford_relations",
    "mumford_reduce",
    "reduce_lambda_monomial",
    "euler_class",
    "euler_class_genus1",
    "degree0_gw",
]

LamKey = Tuple[int, ...]  # lambda indices, sorted descending, each in 1..g
ChernKey = Tuple[int, ...]  # chern indices, sorted, each in 1..r
CoeffPoly = Dict[ChernKey, Fraction]
LamPoly = Dict[LamKey, Fraction]


def _lam_key(indices) -> LamKey:
    """Key of a product of lambda classes; lambda_0 = 1 drops out."""
    return tuple(sorted((i for i in indices if i), reverse=True))


def mumford_relations(g: int) -> Tuple[LamPoly, ...]:
    """The t^{2m}-coefficients of c_t(E) c_{-t}(E) - 1 for m = 1..g, i.e.
    sum_{i+j=2m} (-1)^j lambda_i lambda_j, as {lambda key: coefficient}."""
    rels = []
    for m in range(1, g + 1):
        rel: LamPoly = {}
        for i in range(max(0, 2 * m - g), min(2 * m, g) + 1):
            key = _lam_key((i, 2 * m - i))
            # (-1)^j = (-1)^i, since i + j = 2m is even
            rel[key] = rel.get(key, Fraction(0)) + (-1) ** i
        rels.append(rel)
    return tuple(rels)


@lru_cache(maxsize=None)
def _square_rules(g: int) -> Tuple[Tuple[Tuple[Fraction, LamKey], ...], ...]:
    """For m = 1..g, lambda_m^2 - (-1)^m rel_m, the rewrite of the leading
    monomial lambda_m^2 of the m-th relation, as ((coeff, key), ...)."""
    return tuple(
        tuple((-(-1) ** m * c, key) for key, c in rel.items() if key != (m, m))
        for m, rel in enumerate(mumford_relations(g), start=1)
    )


@lru_cache(maxsize=None)
def reduce_lambda_monomial(g: int, key: LamKey) -> Tuple[Tuple[Fraction, LamKey], ...]:
    """Normal form of a product of lambda classes as ((coeff, monomial), ...).

    Indices outside 1..g make the product zero; monomials of weighted degree
    above the dimension of the coarse space the classes live on (3g - 3 for
    g >= 2, 1 for g = 1) are dropped.  The relations are homogeneous, so a
    product above that degree is dropped before any rewriting.
    """
    if any(i > g or i < 1 for i in key):
        return ()
    key = _lam_key(key)
    if sum(key) > max(3 * g - 3, 1):
        return ()
    p = next((p for p in range(len(key) - 1) if key[p] == key[p + 1]), None)
    if p is None:
        return ((Fraction(1), key),)
    rest = key[:p] + key[p + 2 :]
    acc: LamPoly = {}
    for coeff, tail in _square_rules(g)[key[p] - 1]:
        for c, red in reduce_lambda_monomial(g, _lam_key(rest + tail)):
            acc[red] = acc.get(red, Fraction(0)) + coeff * c
    return tuple((c, k) for k, c in sorted(acc.items()) if c)


register_memo(_square_rules.cache_clear)
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
        """Reduce and normalize a raw {lam key: chern poly} mapping."""
        acc: Dict[LamKey, Dict[ChernKey, Fraction]] = {}
        for lk, cpoly in raw.items():
            for coeff, red in reduce_lambda_monomial(g, tuple(sorted(lk, reverse=True))):
                for ck, cval in cpoly.items():
                    ck = tuple(sorted(ck))
                    if sum(ck) > r:  # chern degree beyond the target dimension
                        continue
                    dest = acc.setdefault(red, {})
                    new = dest.get(ck, Fraction(0)) + coeff * cval
                    if new == 0:
                        dest.pop(ck, None)
                    else:
                        dest[ck] = new
        terms = tuple(
            (lk, tuple(sorted(cp.items())))
            for lk, cp in sorted(acc.items())
            if cp
        )
        return cls(g, r, terms)

    def as_dict(self) -> Dict[LamKey, CoeffPoly]:
        return {lk: dict(cp) for lk, cp in self.terms}

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


def mumford_reduce(elem: LambdaRingElem) -> LambdaRingElem:
    """Re-normalize (idempotent on built elements)."""
    return LambdaRingElem.build(elem.g, elem.r, elem.as_dict())


# The monomial symmetric polynomials m_mu(x_1..x_r), |mu| <= 3, in the
# elementary symmetric ones c_1..c_3: {mu: {chern key: coefficient}}.
_MONOMIAL_IN_CHERN: Dict[Tuple[int, ...], CoeffPoly] = {
    (): {(): Fraction(1)},
    (1,): {(1,): Fraction(1)},
    (2,): {(1, 1): Fraction(1), (2,): Fraction(-2)},
    (1, 1): {(2,): Fraction(1)},
    (3,): {(1, 1, 1): Fraction(1), (1, 2): Fraction(-3), (3,): Fraction(3)},
    (2, 1): {(1, 2): Fraction(1), (3,): Fraction(-3)},
    (1, 1, 1): {(3,): Fraction(1)},
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
    if r not in (1, 2, 3):
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
    raw: Dict[LamKey, CoeffPoly] = {(): {(r,): Fraction(1)}}
    cm1: ChernKey = () if r == 1 else (r - 1,)
    raw[(1,)] = {cm1: Fraction(-1)}
    return LambdaRingElem.build(1, r, raw)


# ---------------------------------------------------------------------------
# degree-zero descendents for projective-space targets


def _proj_integral(r: int, h_degree: int) -> Fraction:
    return Fraction(1) if h_degree == r else Fraction(0)


def _chern_monomial_degree_and_value(r: int, ck: ChernKey) -> Tuple[int, int]:
    """For P^r: c_i = binom(r+1, i) h^i; returns (h-degree, integer factor)."""
    deg = sum(ck)
    val = 1
    for i in ck:
        val *= comb(r + 1, i)
    return deg, val


def _top_triple(g: int, ks: Tuple[int, ...]) -> Fraction:
    """<tau_{ks} | lambda_g lambda_{g-1} lambda_{g-2}> (lambda_2 lambda_1 for
    g = 2) for a descending key, assuming the dimension constraint
    sum(ks) = len(ks).

    The lambda part already has top degree, so every exponent pattern reduces
    to the unpointed integral by the string and dilaton identities alone.
    """
    if not ks:
        return lambda_cube(g) / 2
    if ks[-1] == 0:
        return sum(
            (c * _top_triple(g, low) for _, c, low in lowerings(ks[:-1])), Fraction(0)
        )
    # no zeros and sum(ks) = len(ks) forces all exponents equal to 1
    return (2 * g - 2 + len(ks) - 1) * _top_triple(g, ks[1:])


def _moduli_integral(g: int, lam: LamKey, ks: Tuple[int, ...]) -> Fraction:
    """Integral of psi^{ks} times the lambda monomial over the pointed moduli
    space, dispatched to the known families."""
    n = len(ks)
    if sum(ks) + sum(lam) != 3 * g - 3 + n:
        return Fraction(0)
    top = (2, 1) if g == 2 else tuple(range(g, g - 3, -1))
    if g >= 2 and lam == top:
        return _top_triple(g, ks)
    if n == 0:
        # only the top lambda monomial has a nonzero unpointed integral
        return Fraction(0)
    if lam == ():
        return psi_or_zero(g, ks)
    if lam == (g,):
        return lambda_g_or_zero(g, ks)
    if g >= 2 and lam == (g, g - 1):
        return lambda_g_gm1_or_zero(g, ks)
    if g >= 2 and lam == (g - 1,):
        return lambda_gm1(g, ks)
    if g >= 3 and lam == (g, g - 2):
        val = lambda_g_gm2_or_none(g, ks)
        if val is None:
            raise UnderdeterminedError(
                f"no evaluation known for lambda pattern {lam} at genus {g}"
            )
        return val
    raise UnderdeterminedError(
        f"no evaluation known for lambda pattern {lam} at genus {g}"
    )


def degree0_gw(r: int, g: int, insertions: Sequence[Tuple[int, int]]) -> Fraction:
    """Degree-zero descendent invariant <tau_{k1}(h^{a1}) ...>_{g,0} on P^r.

    Pairs the obstruction Euler class against the inserted classes on the
    target side and the matching psi-lambda integral on the moduli side.
    Raises UnderdeterminedError when a required lambda integral is outside the
    solvable families.
    """
    if g < 1:
        raise DomainError("g must be >= 1")
    if r < 1:
        raise DomainError("r must be >= 1")
    for a, k in insertions:
        if not (0 <= a <= r) or k < 0:
            raise DomainError("insertions must be (class power 0..r, level >= 0)")
    if g >= 2 and r > 3:
        return Fraction(0)  # the virtual class vanishes
    e = euler_class_genus1(r) if g == 1 else euler_class(r, g)
    ks = tuple(sorted((k for _, k in insertions), reverse=True))
    adeg = sum(a for a, _ in insertions)
    total = Fraction(0)
    for lam, cpoly in e.terms:
        for ck, coeff in cpoly:
            hdeg, factor = _chern_monomial_degree_and_value(r, ck)
            xside = coeff * factor * _proj_integral(r, adeg + hdeg)
            if xside == 0:
                continue
            total += xside * _moduli_integral(g, lam, ks)
    return total
