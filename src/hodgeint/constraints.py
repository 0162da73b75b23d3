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

The leading terms of the two x families are solved for by the lambda_{g-1}
and lambda_g lambda_{g-2} families (see :mod:`hodgeint.hodge`), so x_curve
and x_surface vanish by construction on the coefficients those solves use;
the other coefficients are checks of the values that enter them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Tuple

from .combinat import grading
from .errors import MAX_POINTS, DomainError, check_limit
from .hodge import bracket, lambda_g_gm1_or_zero, lambda_g_or_zero, linear_block, split_block
from .hodge import _gm1_or_zero as _lambda_gm1_or_zero
from .hodge import Half, _gm2_slot, _xcurve_partial, _xsurface_partial
from .psi import psi_or_zero

__all__ = ["x_curve", "y_curve", "x_surface", "y_surface"]


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


def x_surface(k: int, g: int, derivs: Sequence[int] = ()) -> Fraction:
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
    At genus 1 the l_g l_{g-2} slot holds twice the genus-1 pure-descendent
    series (see :func:`hodgeint.hodge._gm2_slot`), which makes the family
    vanish there too.
    """
    (c, lead), partial = _xsurface_partial(g, k, _check(k, derivs, 1))
    return c * _gm2_slot(g, lead) + partial


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
        for w, left, right, _ in split_block(k, 0, b, derivs, 0, grading(()), lhead, rhead):
            total += w * psi_or_zero(0, left) * lambda_g_gm1_or_zero(g, right)
    return total
