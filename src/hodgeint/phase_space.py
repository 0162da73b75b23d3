"""Truncated multivariate series on the large phase space.

Coordinates are labelled ``(a, k)`` where ``a`` indexes a cohomology class of
the target and ``k`` is the descendent level; for a point target ``a`` is
always 0.  A monomial also carries a power of the genus-expansion parameter
(written ``h`` below, the ``hbar`` of the generating function), which may be
negative.

The *descendent weight* of a monomial is ``sum (k_i + 1)`` over its coordinate
factors.  Series are truncated by a weight cap and an hbar window and never
fabricate coefficients beyond those caps.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterator, List, NamedTuple, Tuple

__all__ = ["Caps", "TruncatedSeries", "monomial_weight"]

Coord = Tuple[int, int]
Monomial = Tuple[Tuple[Coord, int], ...]  # sorted ((a,k), exponent) pairs


class Caps(NamedTuple):
    weight: int
    hbar_min: int
    hbar_max: int

    def admits(self, hbar: int, mono: Monomial) -> bool:
        return (
            self.hbar_min <= hbar <= self.hbar_max
            and monomial_weight(mono) <= self.weight
        )


def monomial_weight(mono: Monomial) -> int:
    return sum((k + 1) * e for (_, k), e in mono)


def monomial_degree(mono: Monomial) -> int:
    return sum(e for _, e in mono)


class TruncatedSeries:
    """Sparse exact series: {(hbar, monomial): coefficient} within caps."""

    __slots__ = ("caps", "terms")

    def __init__(self, caps: Caps, terms: Dict[Tuple[int, Monomial], Fraction] | None = None):
        self.caps = caps
        self.terms: Dict[Tuple[int, Monomial], Fraction] = {}
        if terms:
            for key, c in terms.items():
                self._add(key, c)

    def _add(self, key: Tuple[int, Monomial], c: Fraction) -> None:
        if c == 0 or not self.caps.admits(*key):
            return
        cur = self.terms.get(key)
        new = c if cur is None else cur + c
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def coefficient(self, hbar: int, mono: Monomial) -> Fraction:
        return self.terms.get((hbar, mono), Fraction(0))

    def __iter__(self) -> Iterator[Tuple[int, Monomial, Fraction]]:
        for (h, m), c in self.terms.items():
            yield h, m, c

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        out = TruncatedSeries(self.caps, dict(self.terms))
        for key, c in other.terms.items():
            out._add(key, c)
        return out

    def scale(self, c: Fraction) -> "TruncatedSeries":
        return TruncatedSeries(self.caps, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Product within self's caps, pruned by hbar window and weight room."""
        weight, lo, hi = self.caps
        right: Dict[int, List[Tuple[int, Monomial, Fraction]]] = {}
        for w, h, m, c in sorted((monomial_weight(m), h, m, c) for h, m, c in other):
            right.setdefault(h, []).append((w, m, c))
        out = TruncatedSeries(self.caps)
        for (h1, m1), c1 in self.terms.items():
            room = weight - monomial_weight(m1)
            for h2, group in right.items():
                for w2, m2, c2 in group if lo <= h1 + h2 <= hi else ():
                    if w2 > room:
                        break
                    d = dict(m1)
                    for coord, e in m2:
                        d[coord] = d.get(coord, 0) + e
                    out._add((h1 + h2, tuple(sorted(d.items()))), c1 * c2)
        return out

    def exp(self) -> "TruncatedSeries":
        """exp of a series with no constant term, truncated to caps.

        Partial products are kept within the caps, widened only to hold
        hbar^0, where the empty product lies.  So the result is exact when the
        caps hold every partial product of the terms whose product reaches
        them; the caller chooses caps that do.
        """
        if any(m == () and h == 0 for (h, m) in self.terms):
            raise ValueError("exp requires no constant term")
        weight, lo, hi = self.caps
        caps = Caps(weight, min(lo, 0), max(hi, 0))
        base = TruncatedSeries(caps, dict(self.terms))
        acc = TruncatedSeries(caps, {(0, ()): Fraction(1)})
        power = TruncatedSeries(caps, {(0, ()): Fraction(1)})
        n = 0
        while power.terms:
            n += 1
            power = power * base
            power = power.scale(Fraction(1, n))
            acc = acc + power
            # every factor of the argument carries positive weight, so the
            # expansion terminates once n exceeds the weight cap
            if n > weight:
                break
        return TruncatedSeries(self.caps, dict(acc.terms))
