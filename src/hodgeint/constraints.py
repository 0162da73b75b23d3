"""Coefficient extraction from the degree-zero constraint relations.

For a curve target the constraints organize into two families of functions on
the large phase space whose derivatives at the origin must vanish; we call
them ``x_curve`` (the lambda_{g-1} / lambda_g family attached to the Euler
characteristic block) and ``y_curve`` (the pure lambda_g family attached to
the point-class coordinates).  For a surface target the analogues pair
lambda_g lambda_{g-2} with lambda_g lambda_{g-1} (``x_surface``) and
lambda_g lambda_{g-1} with genus-zero descendents (``y_surface``).

Each evaluator computes the multi-derivative of the corresponding expression
at the origin, assembling it from the integral providers in
:mod:`hodgeint.hodge` and :mod:`hodgeint.psi`.  A return value of zero is the
constraint holding at that coefficient.

None of the evaluators takes the target's discrete invariants (curve genus,
Chern vector) as input: those appear only as overall prefactors of the
families, so their vanishing is target-independent.

The surface x family involves lambda_g lambda_{g-2} integrals for which no
general evaluation is known; :func:`x_surface` therefore returns a pair
``(scalar, symbolic)`` where ``symbolic`` collects the unevaluated terms as a
mapping from products of unknown integrals to rational coefficients.  The
constraint asserts ``scalar + sum(symbolic) = 0``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Sequence, Tuple

from .combinat import (
    LAMBDA_GG_GRADING,
    PSI_GRADING,
    bracket,
    linear_block,
    split_block,
)
from .errors import MAX_POINTS, DomainError, check_limit
from .hodge import (
    lambda_g_gm1_or_zero,
    lambda_g_gm2_or_none,
    lambda_g_or_zero,
)
from .hodge import _gm1_or_zero as _lambda_gm1_or_zero
from .hodge import _xcurve_partial
from .psi import psi_or_zero

__all__ = ["x_curve", "y_curve", "x_surface", "y_surface"]

Half = Fraction(1, 2)

# an unknown integral, as (genus, exponents); symbolic terms are products of
# one or two of these
Atom = Tuple[int, Tuple[int, ...]]
Symbolic = Dict[Tuple[Atom, ...], Fraction]


def _check(k: int, derivs: Sequence[int], heads: int) -> Tuple[int, ...]:
    """The derivatives as a tuple, once k and their count are checked; the
    evaluator adds `heads` insertions to them (tau_k, and tau_l for y)."""
    if k < 1:
        raise DomainError("constraint level k must be >= 1")
    derivs = tuple(derivs)
    check_limit("the number of derivatives", len(derivs), MAX_POINTS - heads)
    return derivs


def x_curve(k: int, g: int, derivs: Sequence[int] = ()) -> Fraction:
    """Derivative of the curve x-expression at the origin; vanishes when the
    lambda_{g-1} values satisfy their recursion.

        -[1]^k_0 <tau_{k+1} D | l_{g-1}> + sum_i [j_i]^k_0 <tau_{k+j_i} D\\i | l_{g-1}>
        + [1]^k_1 <tau_k D | l_g> - sum_i [j_i]^k_1 <tau_{k+j_i-1} D\\i | l_g>
        - 1/2 sum_{m=0}^{k-2} sum_{g1+g2=g} (-1)^{m+1} [-m-1]^k_1
              sum_{I+J=D} <tau_m I | l_{g1}> <tau_{k-m-2} J | l_{g2}>.
    """
    (c, lead), partial = _xcurve_partial(g, k, _check(k, derivs, 1))
    return c * _lambda_gm1_or_zero(g, lead) + partial


def y_curve(k: int, g: int, ell: int, derivs: Sequence[int] = ()) -> Fraction:
    """Derivative of the curve y-expression at the origin:

        -[1]^k_0 <tau_{k+1} tau_l D | l_g>
        + sum_i [j_i]^k_0 <tau_{k+j_i} tau_l D\\i | l_g>
        + [l+1]^k_0 <tau_{k+l} D | l_g>.

    Vanishes identically by the multinomial closed form.
    """
    derivs = _check(k, derivs, 2)
    if ell < 0:
        raise DomainError("ell must be >= 0")
    total = bracket(ell + 1, k, 0) * lambda_g_or_zero(g, (k + ell,) + derivs)
    for c, key in linear_block(k, 0, 0, derivs, (ell,)):
        total += c * lambda_g_or_zero(g, key)
    return total


def _gm2_term(sym: Symbolic, g: int, ks: Tuple[int, ...], c: Fraction) -> Fraction:
    """c * <tau_ks | l_g l_{g-2}> as a scalar; an undetermined integral goes
    into sym instead and counts 0 here."""
    if c == 0:
        return Fraction(0)
    if g == 1:
        # the genus-1 slot of the family is not a lambda pair (lambda_{-1} = 0
        # kills that) but twice the pure-descendent genus-1 series: the
        # Noether relation c_1^2 + c_2 = 12 chi(O) folds the genus-1 Euler
        # block of the partition function into the squared-Chern coefficient.
        # With this value the family vanishes identically at genus 1 as well.
        return c * 2 * psi_or_zero(1, ks)
    val = lambda_g_gm2_or_none(g, ks)
    if val is not None:
        return c * val
    # None means the key is on the grading but not determined
    atom = (g, tuple(sorted(ks, reverse=True)))
    new = sym.get(atom, Fraction(0)) + c
    if new:
        sym[atom] = new
    else:
        sym.pop(atom)
    return Fraction(0)


def x_surface(
    k: int, g: int, derivs: Sequence[int] = ()
) -> Tuple[Fraction, Symbolic]:
    """Derivative of the surface x-expression at the origin.

    Assembled directly from the displayed operator acting on the surface
    partition-function exponent (coefficient of the squared-Chern-vector
    scalar block):

        -[1/2]^k_0 <tau_{k+1} D | l_g l_{g-2}>
        + sum_i [j_i-1/2]^k_0 <tau_{k+j_i} D\\i | l_g l_{g-2}>
        + sum_{m=0}^{k-1} (-1)^{m+1} (
              [-m-3/2]^k_0 sum_{I+J} <tau_m I>_0 <tau_{k-m-1} J | l_g l_{g-2}>
            + 1/2 [-m-1/2]^k_0 sum_{g1+g2=g, I+J}
                  <tau_m I | l_{g1} l_{g1-1}> <tau_{k-m-1} J | l_{g2} l_{g2-1}> )
        + [1/2]^k_1 <tau_k D | l_g l_{g-1}>
        - sum_i [j_i-1/2]^k_1 <tau_{k+j_i-1} D\\i | l_g l_{g-1}>
        - sum_{m=0}^{k-2} (-1)^{m+1} [-m-3/2]^k_1
              sum_{I+J} <tau_m I>_0 <tau_{k-m-2} J | l_g l_{g-1}>.

    The cross terms of a genus-0 factor with a lambda-pair factor appear
    twice in the double derivative, so they carry the split weight unhalved.

    Returns ``(scalar, symbolic)``: the evaluated part plus the unevaluated
    lambda_g lambda_{g-2} contributions, as a mapping from unknown integrals
    (genus, exponents) to rational coefficients.  The constraint asserts
    scalar + symbolic = 0; an empty ``symbolic`` means fully determined.

    At genus 1 the lambda pair degenerates (lambda_{-1} = 0) and its slot is
    filled by twice the genus-1 pure-descendent series instead (see
    :func:`_gm2_term`), which makes the family vanish there too.
    """
    derivs = _check(k, derivs, 1)
    scalar, sym = Fraction(0), {}

    # lambda_g lambda_{g-2} block
    for c, key in linear_block(k, 0, -Half, derivs):
        scalar += _gm2_term(sym, g, key, c)
    for w, left, right, _ in split_block(k, 0, -Half, derivs, 0, PSI_GRADING):
        scalar += _gm2_term(sym, g, right, w * psi_or_zero(0, left))
    # double derivative on the (1,1) block squares the lambda_g
    # lambda_{g-1} part of the exponent
    for w, left, right, g1 in split_block(k, 0, Half, derivs, g, LAMBDA_GG_GRADING):
        pair = lambda_g_gm1_or_zero(g1, left) * lambda_g_gm1_or_zero(g - g1, right)
        scalar += Half * w * pair

    # lambda_g lambda_{g-1} block (its exponent block carries a minus sign,
    # so the shifted-coordinate pair comes out +constant, -t_m)
    for c, key in linear_block(k, 1, -Half, derivs):
        scalar -= c * lambda_g_gm1_or_zero(g, key)
    for w, left, right, _ in split_block(k, 1, -Half, derivs, 0, PSI_GRADING):
        scalar -= w * psi_or_zero(0, left) * lambda_g_gm1_or_zero(g, right)
    return scalar, sym


def y_surface(k: int, g: int, ell: int, derivs: Sequence[int] = ()) -> Fraction:
    """Derivative of the surface y-expression at the origin:

        -[1/2]^k_0 <tau_{k+1} tau_l D | l_g l_{g-1}>
        + sum_i [j_i-1/2]^k_0 <tau_{k+j_i} tau_l D\\i | l_g l_{g-1}>
        + [l+1/2]^k_0 <tau_{k+l} D | l_g l_{g-1}>
        + sum_{m=0}^{k-1} (-1)^{m+1} (
              [-m-3/2]^k_0 sum_{I+J=D} <tau_m I>_0 <tau_{k-m-1} tau_l J | l_g l_{g-1}>
            + [-m-1/2]^k_0 sum_{I+J=D} <tau_m tau_l I>_0 <tau_{k-m-1} J | l_g l_{g-1}> ).

    Vanishes identically by the double-factorial closed form.
    """
    derivs = _check(k, derivs, 2)
    if ell < 0:
        raise DomainError("ell must be >= 0")
    total = bracket(ell + Half, k, 0) * lambda_g_gm1_or_zero(g, (k + ell,) + derivs)
    for c, key in linear_block(k, 0, -Half, derivs, (ell,)):
        total += c * lambda_g_gm1_or_zero(g, key)
    for b, lhead, rhead in ((-Half, (), (ell,)), (Half, (ell,), ())):
        for w, left, right, _ in split_block(
            k, 0, b, derivs, 0, PSI_GRADING, lhead, rhead
        ):
            total += w * psi_or_zero(0, left) * lambda_g_gm1_or_zero(g, right)
    return total
