"""Truncated univariate power series over exact rationals.

A ``Series1D`` holds coefficients for powers 0..cap and never fabricates
coefficients beyond the cap.  This is enough to expand (t/2)/sin(t/2) exactly,
which is where the one-point psi-lambda_g constants come from.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import List, Sequence

from .combinat import bernoulli

__all__ = ["Series1D", "b_sequence", "b_closed_form"]


class Series1D:
    """Polynomial truncation of a power series: coefficients for t^0..t^cap."""

    __slots__ = ("coeffs", "cap")

    def __init__(self, coeffs: Sequence[Fraction], cap: int):
        if cap < 0:
            raise ValueError("cap must be >= 0")
        cs = [Fraction(c) for c in coeffs[: cap + 1]]
        cs += [Fraction(0)] * (cap + 1 - len(cs))
        self.coeffs: List[Fraction] = cs
        self.cap = cap

    def __mul__(self, other: "Series1D") -> "Series1D":
        cap = min(self.cap, other.cap)
        out = [Fraction(0)] * (cap + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0 or i > cap:
                continue
            for j in range(cap - i + 1):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return Series1D(out, cap)

    def inverse(self) -> "Series1D":
        """Multiplicative inverse; requires a unit constant term."""
        if self.coeffs[0] == 0:
            raise ValueError("constant term must be a unit")
        cap = self.cap
        inv0 = Fraction(1) / self.coeffs[0]
        out = [Fraction(0)] * (cap + 1)
        out[0] = inv0
        for m in range(1, cap + 1):
            s = Fraction(0)
            for k in range(1, m + 1):
                s += self.coeffs[k] * out[m - k]
            out[m] = -inv0 * s
        return Series1D(out, cap)

    def __repr__(self):
        return f"Series1D({self.coeffs!r}, cap={self.cap})"


def b_sequence(gmax: int) -> List[Fraction]:
    """Constants of the one-point psi^(2g-2) lambda_g integrals, from the
    exact expansion of (t/2)/sin(t/2) = 1 / (sin(t/2) / (t/2)).

    Returns [b_0, ..., b_gmax].
    """
    if gmax < 0:
        raise ValueError("gmax must be >= 0")
    cap = 2 * gmax + 2
    # sin(t/2)/(t/2) = sum_k (-1)^k (t/2)^{2k} / (2k+1)!
    coeffs = [Fraction(0)] * (cap + 1)
    k = 0
    while 2 * k <= cap:
        coeffs[2 * k] = Fraction((-1) ** k, factorial(2 * k + 1) * 4**k)
        k += 1
    inv = Series1D(coeffs, cap).inverse()
    return [inv.coeffs[2 * g] for g in range(gmax + 1)]


def b_closed_form(g: int) -> Fraction:
    """The same constants via Bernoulli numbers: ((2^{2g-1}-1)/2^{2g-1}) |B_{2g}|/(2g)!."""
    if g < 0:
        raise ValueError("g must be >= 0")
    if g == 0:
        return Fraction(1)
    half = 2 ** (2 * g - 1)
    return Fraction(half - 1, half) * abs(bernoulli(2 * g)) / factorial(2 * g)
