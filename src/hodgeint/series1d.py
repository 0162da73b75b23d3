"""The one-point psi-lambda_g constants b_g, by two independent routes.

:func:`b_sequence` expands (t/2)/sin(t/2) exactly as a power series;
:func:`b_closed_form` evaluates the Bernoulli-number closed form.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import List

from .combinat import bernoulli

__all__ = ["b_sequence", "b_closed_form"]


def b_sequence(gmax: int) -> List[Fraction]:
    """Constants of the one-point psi^(2g-2) lambda_g integrals, the
    coefficients b_g of t^{2g} in (t/2)/sin(t/2) = 1 / (sin(t/2) / (t/2)).

    In u = t^2, sin(t/2)/(t/2) = sum_k s_k u^k with s_k = (-1)^k / ((2k+1)! 4^k),
    so its inverse has inv_0 = 1 and inv_m = -sum_{k=1..m} s_k inv_{m-k}, summed
    as integer numerators over one common denominator.  Returns [b_0, ..., b_gmax].
    """
    if gmax < 0:
        raise ValueError("gmax must be >= 0")
    den = [factorial(2 * k + 1) * 4**k for k in range(gmax + 1)]  # of (-1)^k s_k
    inv = [Fraction(1)]
    for m in range(1, gmax + 1):
        terms = [((-1) ** (k + 1) * inv[m - k].numerator, den[k] * inv[m - k].denominator)
                 for k in range(1, m + 1)]
        d = lcm(*(q for _, q in terms))
        inv.append(Fraction(sum(p * (d // q) for p, q in terms), d))
    return inv


def b_closed_form(g: int) -> Fraction:
    """The same constants via Bernoulli numbers: ((2^{2g-1}-1)/2^{2g-1}) |B_{2g}|/(2g)!."""
    if g < 0:
        raise ValueError("g must be >= 0")
    if g == 0:
        return Fraction(1)
    half = 2 ** (2 * g - 1)
    return Fraction(half - 1, half) * abs(bernoulli(2 * g)) / factorial(2 * g)
