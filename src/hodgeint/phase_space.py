"""Truncated multivariate series on the large phase space.

Coordinates are labelled ``(a, k)`` where ``a`` indexes a cohomology class of
the target and ``k`` is the descendent level; for a point target ``a`` is
always 0.  A monomial also carries a power of the genus-expansion parameter
(written ``h`` below, the ``hbar`` of the generating function), which may be
negative.

The *descendent weight* of a monomial is ``sum (k_i + 1)`` over its coordinate
factors.  Series are truncated by a weight cap and an hbar window and never
fabricate coefficients beyond those caps.  The one operation on a series is
:meth:`TruncatedSeries.exp`, which builds the point partition function from
its free energies; operators act on series in :mod:`hodgeint.operators`.

Monomial arithmetic lives here too: :func:`monomials` lists monomials by
weight, and :func:`exchange` divides and multiplies one as an operator term does.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Sequence, Tuple

__all__ = ["Caps", "TruncatedSeries", "exchange", "monomial_weight", "monomials"]

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


def monomials(weight: int, basis_size: int) -> List[List[Monomial]]:
    """Every monomial of weight at most ``weight`` over the coordinates (a, k)
    with a < basis_size, canonically sorted, by layer: entry w lists those of
    weight w once each.  Each coordinate in turn extends, by its powers, the
    monomials of the coordinates before it, read from the top layer down."""
    layers: List[List[Monomial]] = [[()]] + [[] for _ in range(weight)]
    for coord, step in [((a, k), k + 1) for a in range(basis_size) for k in range(weight)]:
        for w in range(weight - step, -1, -1):
            for mono in layers[w]:
                for e in range(1, (weight - w) // step + 1):
                    layers[w + e * step].append(mono + ((coord, e),))
    return layers


def exchange(mono: Monomial, removed: Sequence[Coord], added: Sequence[Coord]):
    """``mono`` divided by the product of ``removed`` and multiplied by that
    of ``added``, with the falling factorial that differentiating by
    ``removed`` brings down: ``(factor, monomial)``, or ``(0, ())`` when
    ``removed`` does not divide."""
    d = dict(mono)
    factor = 1
    for coord in removed:
        e = d.pop(coord, 0)
        if not e:
            return 0, ()
        factor *= e
        if e > 1:
            d[coord] = e - 1
    for coord in added:
        d[coord] = d.get(coord, 0) + 1
    return factor, tuple(sorted(d.items()))


class TruncatedSeries:
    """Sparse exact series: {(hbar, monomial): coefficient} within caps."""

    __slots__ = ("caps", "terms")

    def __init__(self, caps: Caps, terms: Dict[Tuple[int, Monomial], Fraction] | None = None):
        self.caps = caps
        self.terms = {key: c for key, c in (terms or {}).items() if c and caps.admits(*key)}

    def exp(self) -> "TruncatedSeries":
        """exp of a series whose terms all have positive weight, truncated to
        caps.

        Z = exp(F) solves E Z = (E F) Z for the weighted Euler operator E t^M
        = w(M) t^M, so w(M) Z_M = sum over the terms A of F that divide M of
        w(A) F_A Z_{M/A}: Z is built from Z_1 = 1 one weight layer at a time,
        each Z_{M/A} other than Z_1 taken within the caps.  So the result is
        exact when the caps hold every nonempty sub-product of the terms
        whose product reaches them; the caller chooses caps that do.
        """
        weight, lo, hi = self.caps
        terms: List[List[Tuple[int, Monomial, Fraction]]] = [[] for _ in range(weight + 1)]
        for (h, m), c in self.terms.items():
            w = monomial_weight(m)
            if not w:
                raise ValueError("exp requires terms of positive weight")
            terms[w].append((h, m, w * c))
        layers = [[(0, (), Fraction(1))]]
        for w in range(1, weight + 1):
            acc: Dict[Tuple[int, Monomial], Fraction] = {}
            for wa in range(1, w + 1):
                for h1, m1, c1 in terms[wa]:
                    for h2, m2, c2 in layers[w - wa]:
                        if lo <= h1 + h2 <= hi:
                            d = dict(m2)
                            for coord, e in m1:
                                d[coord] = d.get(coord, 0) + e
                            key = (h1 + h2, tuple(sorted(d.items())))
                            acc[key] = acc.get(key, 0) + c1 * c2
            layers.append([(h, m, c / w) for (h, m), c in acc.items() if c])
        return TruncatedSeries(self.caps, {(h, m): c for layer in layers for h, m, c in layer})
