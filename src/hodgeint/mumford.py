"""The lambda-class ring, obstruction-bundle Euler classes, and degree-zero
descendent invariants.

The Chern classes lambda_1..lambda_g of the rank-g Hodge bundle satisfy the
relations extracted from c_t(E) c_{-t}(E) = 1 (in particular lambda_g^2 = 0
and lambda_{g-1}^2 = 2 lambda_g lambda_{g-2}).  :class:`LambdaRingElem` keeps
expressions in normal form modulo these relations, with coefficients that are
polynomials in the Chern classes c_1..c_r of a target variety.

The Euler class of the obstruction bundle (the external tensor product of the
target's tangent bundle with the dual Hodge bundle) is computed by the
splitting principle and symmetrized back into Chern classes; pairing it with
descendent insertions gives the degree-zero Gromov-Witten evaluator
:func:`degree0_gw`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Dict, List, Sequence, Tuple

import sympy as sp

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


def _lam_syms(g: int) -> List[sp.Symbol]:
    return [sp.Symbol(f"lam{i}") for i in range(1, g + 1)]


def _lam_expr(i: int, syms: List[sp.Symbol]):
    g = len(syms)
    if i == 0:
        return sp.Integer(1)
    if i < 0 or i > g:
        return sp.Integer(0)
    return syms[i - 1]


@lru_cache(maxsize=None)
def mumford_relations(g: int) -> Tuple[sp.Expr, ...]:
    """The t^{2m}-coefficients of c_t(E) c_{-t}(E) - 1 for m = 1..g."""
    syms = _lam_syms(g)
    rels = []
    for m in range(1, g + 1):
        rel = sp.Integer(0)
        for i in range(0, 2 * m + 1):
            j = 2 * m - i
            rel += (-1) ** j * _lam_expr(i, syms) * _lam_expr(j, syms)
        rels.append(sp.expand(rel))
    return tuple(rels)


@lru_cache(maxsize=None)
def _groebner(g: int):
    syms = _lam_syms(g)
    # graded reverse lex with lam1 > ... > lamg: the leading monomial of the
    # m = g-1 relation is lam_{g-1}^2, so squares rewrite toward lam_g
    return sp.groebner(mumford_relations(g), *syms, order="grevlex")


@lru_cache(maxsize=None)
def reduce_lambda_monomial(g: int, key: LamKey) -> Tuple[Tuple[Fraction, LamKey], ...]:
    """Normal form of a product of lambda classes as ((coeff, monomial), ...).

    Indices outside 1..g make the product zero; monomials of weighted degree
    above the dimension of the coarse space the classes live on (3g - 3 for
    g >= 2, 1 for g = 1) are dropped.
    """
    if any(i > g or i < 1 for i in key):
        return ()
    syms = _lam_syms(g)
    mono = sp.prod([_lam_expr(i, syms) for i in key], start=sp.Integer(1))
    _, rem = _groebner(g).reduce(mono) if key else (None, sp.Integer(1))
    out: List[Tuple[Fraction, LamKey]] = []
    poly = sp.Poly(rem, *syms)
    for powers, coeff in poly.terms():
        if coeff == 0:
            continue
        mk: List[int] = []
        for idx, e in enumerate(powers):
            mk.extend([idx + 1] * e)
        mk_t = tuple(sorted(mk, reverse=True))
        # monomials above the dimension of the coarse space the lambda
        # classes are pulled back from vanish (3g-3 for g >= 2, 1 for g = 1)
        if sum(mk_t) > max(3 * g - 3, 1):
            continue
        out.append((Fraction(sp.Rational(coeff)), mk_t))
    return tuple(sorted(out, key=lambda t: t[1]))


register_memo(mumford_relations.cache_clear)
register_memo(_groebner.cache_clear)
register_memo(reduce_lambda_monomial.cache_clear)


@dataclass(frozen=True)
class LambdaRingElem:
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


def euler_class(r: int, g: int) -> LambdaRingElem:
    """Euler class of the obstruction bundle for a dimension-r target, g >= 2.

    By the splitting principle, with x_1..x_r the Chern roots of the tangent
    bundle, the class is

        prod_i sum_m (-1)^{g-m} x_i^m lambda_{g-m},

    truncated above x-degree r, symmetrized into c_1..c_r and reduced.
    """
    if r not in (1, 2, 3):
        raise DomainError("the class vanishes for r > 3; use r in {1, 2, 3}")
    if g < 2:
        raise DomainError("g must be >= 2 (see euler_class_genus1)")
    xs = [sp.Symbol(f"x{i}") for i in range(1, r + 1)]
    syms = _lam_syms(g)
    prodx = sp.Integer(1)
    for x in xs:
        factor = sp.Integer(0)
        for m in range(0, r + 1):
            factor += (-1) ** (g - m) * x**m * _lam_expr(g - m, syms)
        prodx *= factor
    prodx = sp.expand(prodx)

    raw: Dict[LamKey, CoeffPoly] = {}
    poly = sp.Poly(prodx, *xs)
    # group by lambda monomial: collect x-coefficients, then symmetrize
    by_lam: Dict[LamKey, sp.Expr] = {}
    for powers, coeff in poly.terms():
        if sum(powers) > r:
            continue
        xmono = sp.prod([x**e for x, e in zip(xs, powers)], start=sp.Integer(1))
        lpoly = sp.Poly(coeff, *syms)
        for lpow, lcoeff in lpoly.terms():
            lk: List[int] = []
            for idx, e in enumerate(lpow):
                lk.extend([idx + 1] * e)
            key = tuple(sorted(lk, reverse=True))
            by_lam[key] = by_lam.get(key, sp.Integer(0)) + lcoeff * xmono
    for key, expr in by_lam.items():
        sym_part, remainder, basis = sp.polys.polyfuncs.symmetrize(
            sp.expand(expr), *xs, formal=True
        )
        if sp.expand(remainder) != 0:
            raise RuntimeError("root symmetry broken in Euler class expansion")
        cs = [sp.Symbol(f"c{i}") for i in range(1, r + 1)]
        sym_c = sym_part.subs({sym: c for (sym, _), c in zip(basis, cs)})
        cpoly: CoeffPoly = {}
        p = sp.Poly(sp.expand(sym_c), *cs) if cs else None
        for cpow, ccoeff in p.terms():
            ck: List[int] = []
            for idx, e in enumerate(cpow):
                ck.extend([idx + 1] * e)
            cpoly[tuple(sorted(ck))] = Fraction(sp.Rational(ccoeff))
        raw[key] = cpoly
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
    g = 2), assuming the dimension constraint sum(ks) = len(ks).

    The lambda part already has top degree, so every exponent pattern reduces
    to the unpointed integral by the string and dilaton identities alone.
    """
    if not ks:
        return lambda_cube(g) / 2
    if 0 in ks:  # string: lower each positive exponent in turn
        rest = tuple(k for i, k in enumerate(ks) if i != ks.index(0))
        total = Fraction(0)
        for i, k in enumerate(rest):
            if k >= 1:
                total += _top_triple(g, rest[:i] + (k - 1,) + rest[i + 1 :])
        return total
    # no zeros and sum(ks) = len(ks) forces all exponents equal to 1
    n = len(ks)
    return (2 * g - 2 + n - 1) * _top_triple(g, ks[1:])


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
