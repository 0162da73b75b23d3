"""Constraint operators on the truncated large phase space.

A :class:`DifferentialOperator` is a finite normal-ordered sum of terms

    coefficient * hbar^h * (product of coordinates) * (product of derivatives),

with coordinates labelled ``(class index, descendent level)`` as in
:mod:`hodgeint.phase_space`, which also owns the monomial arithmetic of
their action.  Operators are subtracted, scaled, filtered by level and
bracketed (:func:`commutator`, which sums only the contracted terms of the
two products, found through the :func:`runs` of equal entries of sorted
terms), and act on truncated series (:func:`apply_operator`); no product of
two operators is formed.

One builder, :func:`general_operator`, makes the level-k operator of any
target from its even cohomology (:class:`CohomologyData`): bracket
coefficients, first-Chern-class multiplication matrices, the dilaton shift,
the quadratic zero mode and the level-0 constant.  :func:`projective` gives
the data of P^r (r = 0 is the point); :func:`point_operator` is the point case.

Infinite level sums are truncated at a level cap; all arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, lcm, perm
from operator import mul
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set
from typing import Tuple

from .combinat import rising_numerator
from .errors import DomainError
from .phase_space import Coord, Monomial, TruncatedSeries, exchange, monomials

__all__ = [
    "CohomologyData",
    "DifferentialOperator",
    "point_data",
    "p1_data",
    "p2_data",
    "p3_data",
    "projective",
    "point_operator",
    "general_operator",
    "commutator",
    "apply_operator",
]

_ZERO = Fraction(0)

TermKey = Tuple[int, Tuple[Coord, ...], Tuple[Coord, ...]]  # (hbar, mult, diff)


# ---------------------------------------------------------------------------
# target cohomology data


class _CohomologyFields(NamedTuple):
    name: str
    dim: int  # complex dimension r
    p: Tuple[int, ...]  # holomorphic degrees p_a (= q_a)
    eta: Tuple[Tuple[Fraction, ...], ...]  # intersection pairing
    c1: Tuple[Tuple[Fraction, ...], ...]  # multiplication by c_1(X)
    chern_top: Fraction
    chern_mixed: Fraction


class CohomologyData(_CohomologyFields):
    """Even-degree cohomology of the target, in a fixed homogeneous basis.

    ``index 0 must be the identity class``.  ``c1`` is the matrix of
    multiplication by the first Chern class of the target: column ``a`` holds
    the expansion of ``c1 . basis[a]``.  ``chern_top`` and ``chern_mixed`` are
    the integrals of c_r and c_1 c_{r-1} over the target.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        n = len(self.p)
        if len(self.eta) != n or any(len(row) != n for row in self.eta):
            raise DomainError("eta must be square of basis size")
        if len(self.c1) != n or any(len(row) != n for row in self.c1):
            raise DomainError("c1 must be square of basis size")
        if any(self.eta[i][j] != self.eta[j][i] for i in range(n) for j in range(i)):
            raise DomainError("eta must be symmetric")
        # eta-self-adjointness of c1 multiplication: C^t eta = eta C
        for i in range(n):
            for j in range(n):
                lhs = sum(self.c1[k][i] * self.eta[k][j] for k in range(n))
                rhs = sum(self.eta[i][k] * self.c1[k][j] for k in range(n))
                if lhs != rhs:
                    raise DomainError("c1 multiplication must be eta-self-adjoint")
        _invert(self.eta)  # DomainError when eta is singular
        return self

    @property
    def size(self) -> int:
        return len(self.p)

    def eta_inverse(self) -> List[List[Fraction]]:
        return _invert(self.eta)

    def constant(self) -> Fraction:
        """The level-0 additive constant (1/48) * integral of
        (3 - r) c_r - 2 c_1 c_{r-1}."""
        return Fraction(1, 48) * (
            (3 - self.dim) * self.chern_top - 2 * self.chern_mixed
        )


def _invert(mat: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Exact inverse of a square matrix (Gauss-Jordan); DomainError when it
    is singular."""
    n = len(mat)
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    aug = [[Fraction(x) for x in row] + eye[i] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise DomainError("eta must be non-degenerate")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def projective(r: int) -> CohomologyData:
    """P^r in the basis 1, h, ..., h^r; r = 0 is the point.  h^a h^b
    integrates to [a + b = r], c_1 = (r + 1) h, and c_i = C(r + 1, i) h^i."""
    basis = range(r + 1)
    return CohomologyData(
        f"P{r}" if r else "point",
        r,
        tuple(basis),
        tuple(tuple(Fraction(int(a + b == r)) for b in basis) for a in basis),
        tuple(tuple(Fraction((r + 1) * (a == b + 1)) for b in basis) for a in basis),
        Fraction(r + 1),  # c_r
        Fraction((r + 1) * comb(r + 1, 2)),  # c_1 c_{r-1}
    )


_POINT = projective(0)  # immutable, so every point operator shares one


def point_data() -> CohomologyData:
    return _POINT


def p1_data() -> CohomologyData:
    return projective(1)


def p2_data() -> CohomologyData:
    return projective(2)


def p3_data() -> CohomologyData:
    return projective(3)


# ---------------------------------------------------------------------------
# operators


class DifferentialOperator:
    """Normal-ordered operator: {(hbar, mult, diff): coefficient}, on
    canonical keys (``mult`` and ``diff`` sorted).  Only the constructor and
    :meth:`add_term` sort; derived keys go in unsorted through :meth:`_put`."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[TermKey, Fraction]] = None):
        self.terms: Dict[TermKey, Fraction] = {}
        for (h, mult, diff), c in (terms or {}).items():
            self.add_term(c, h, mult, diff)

    @staticmethod
    def _from_canonical(terms: Dict[TermKey, Fraction]) -> "DifferentialOperator":
        out = DifferentialOperator()
        out.terms = terms
        return out

    def _put(self, key: TermKey, c: Fraction) -> None:
        new = self.terms.get(key, _ZERO) + c
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def add_term(
        self,
        coeff: Fraction,
        hbar: int = 0,
        mult: Iterable[Coord] = (),
        diff: Iterable[Coord] = (),
    ) -> None:
        self._put((hbar, tuple(sorted(mult)), tuple(sorted(diff))), coeff)

    def __sub__(self, other: "DifferentialOperator") -> "DifferentialOperator":
        out = DifferentialOperator._from_canonical(dict(self.terms))
        for key, c in other.terms.items():
            out._put(key, -c)
        return out

    def scale(self, c: Fraction) -> "DifferentialOperator":
        terms = {k: v * c for k, v in self.terms.items()} if c else {}
        return DifferentialOperator._from_canonical(terms)

    def is_zero(self) -> bool:
        return not self.terms

    def level_filter(self, level_cap: int) -> "DifferentialOperator":
        """Drop terms touching any coordinate of level above the cap."""
        return DifferentialOperator._from_canonical(
            {
                (h, mult, diff): c
                for (h, mult, diff), c in self.terms.items()
                if all(k <= level_cap for _, k in mult + diff)
            }
        )

    def __repr__(self):
        return f"DifferentialOperator<{len(self.terms)} terms>"


def _numerators(terms: Dict) -> Tuple[int, List[Tuple]]:
    """Nonzero Fraction values as integer numerators over their common
    denominator D, the lcm of their denominators: ``(D, [(key, n), ...])``."""
    d = lcm(*(c.denominator for c in terms.values()))
    return d, [(key, c.numerator * (d // c.denominator)) for key, c in terms.items()]


def _over(d: int, *parts: Iterable[Tuple[TermKey, int]]) -> DifferentialOperator:
    """The sum of ``(key, numerator)`` items over the denominator d, with one
    Fraction per nonzero key."""
    acc: Dict[TermKey, int] = {}
    for items in parts:
        for key, n in items:
            acc[key] = acc.get(key, 0) + n
    return DifferentialOperator._from_canonical(
        {key: Fraction(n, d) for key, n in acc.items() if n}
    )


def runs(key: Tuple[int, ...]) -> Iterator[Tuple[int, int, int]]:
    """(entry, multiplicity, index of its last copy) of each distinct entry of
    a sorted key, in one scan: operator contractions slice copies out of
    sorted terms."""
    n, i = len(key), 0
    while i < n:
        v, j = key[i], i + 1
        while j < n and key[j] == v:
            j += 1
        yield v, j - i, j - 1
        i = j


def _contracted(left: List[Tuple[TermKey, int]], right: List[Tuple[TermKey, int]]):
    """The terms of left . right with at least one contraction, for the
    integer views (:func:`_numerators`) of two operators.

    A contraction is a derivative of a left term acting on a coordinate of a
    right term.  When a coordinate carries d derivatives on the left and m
    factors on the right, s contractions on it can be chosen in
    comb(d, s) * perm(m, s) ways.  Yields one ``(key, numerator)`` pair per
    choice, not yet combined.  Right terms are indexed once by the runs of
    their sorted ``mult``, ``{coord: [(index, last, count), ...]}``, so a left
    term meets only those holding one of its derivative coordinates, and a
    choice slices its s copies out of both tuples: s = 1..min(d, m) when the
    derivatives sit on one coordinate, else a product of choices per coordinate.
    """
    by_coord: Dict[Coord, List[Tuple[int, int, int]]] = {}
    for i, ((_, m2, _), _) in enumerate(right):
        for coord, m, last in runs(m2):
            by_coord.setdefault(coord, []).append((i, last, m))
    for (h1, m1, d1), c1 in left:
        if d1 and d1[0] == d1[-1]:
            d = len(d1)
            for i, ml, m in by_coord.get(d1[0], ()):
                (h2, m2, d2), c2 = right[i]
                for s in range(1, min(d, m) + 1):
                    mult = m1 + m2[: ml + 1 - s] + m2[ml + 1 :]
                    c = c1 * c2 * comb(d, s) * perm(m, s)
                    yield (h1 + h2, tuple(sorted(mult)), tuple(sorted(d2 + d1[s:]))), c
            continue
        # shared coordinates per right term, descending, so slicing one
        # leaves the indices of the ones still to come
        shared: Dict[int, List[Tuple[int, int, int, int]]] = {}
        for coord, d, dl in reversed(list(runs(d1))):
            for i, ml, m in by_coord.get(coord, ()):
                shared.setdefault(i, []).append((dl, d, ml, m))
        for i, pairs in shared.items():
            (h2, m2, d2), c2 = right[i]
            for choice in product(*(range(min(d, m) + 1) for _, d, _, m in pairs)):
                if not any(choice):
                    continue
                c, mult, diff = c1 * c2, m2, d1
                for s, (dl, d, ml, m) in zip(choice, pairs):
                    c *= comb(d, s) * perm(m, s)
                    mult = mult[: ml + 1 - s] + mult[ml + 1 :]
                    diff = diff[: dl + 1 - s] + diff[dl + 1 :]
                yield (h1 + h2, tuple(sorted(m1 + mult)), tuple(sorted(d2 + diff))), c


def commutator(
    a: DifferentialOperator, b: DifferentialOperator
) -> DifferentialOperator:
    """[a, b] = a . b - b . a.

    The plain products of a . b and b . a are equal term by term and cancel,
    so only the terms :func:`_contracted` yields for each order are summed, as
    integer numerators over the product of the two common denominators.
    """
    (da, ia), (db, ib) = _numerators(a.terms), _numerators(b.terms)
    negated = ((key, -n) for key, n in _contracted(ib, ia))
    return _over(da * db, _contracted(ia, ib), negated)


# ---------------------------------------------------------------------------
# builders


def point_operator(k: int, level_cap: int) -> DifferentialOperator:
    """The point constraint operator of level k >= -1, truncated by level: the
    point case of :func:`general_operator`, with half-integer weights."""
    return general_operator(k, _POINT, level_cap)


def general_operator(
    k: int, data: CohomologyData, level_cap: int
) -> DifferentialOperator:
    """The constraint operator of level k >= -1 for even-cohomology data.

    Assembled from the four displayed blocks: the linear block with bracket
    coefficients [b_a + m]^k_i and i-fold first-Chern multiplications, in the
    dilaton-shifted coordinate t_{0,1} - 1; the order-hbar double-derivative
    block with coefficients [b_c - m - 1]^k_i (index c before the Chern
    multiplication, paired through eta); the 1/(2 hbar) zero mode with the
    (k+1)-st Chern power; and the level-0 constant.

    Every coefficient is summed as an integer numerator over one denominator
    d: the weights b_a are halves of integers, so [b]^k_i is
    rising_numerator(2b, 2, k, i) / 2^(k+1-i); c_1 is an integer matrix over
    its lcm of denominators dc, so its i-th power is one over dc^i, and eta^{-1}
    with eta are over their lcm de.  A term multiplies a Chern entry by an
    eta^{-1} or eta entry, so d is 2^(k+2) dc^(k+1) de times the constant's.
    """
    if k < -1:
        raise DomainError("level must be >= -1")
    n = data.size
    dc, (c1,) = _integral(data.c1)
    powers = [[[int(r == c) for c in range(n)] for r in range(n)]]  # c_1^i over dc^i
    while len(powers) < k + 2:
        powers.append([[sum(map(mul, row, col)) for col in zip(*powers[-1])] for row in c1])
    de, (eta_inv, eta) = _integral(data.eta_inverse(), data.eta)
    const = data.constant()
    d = 2 ** (k + 2) * dc ** (k + 1) * de * const.denominator
    twice_b = [2 * p + 1 - data.dim for p in data.p]  # b_a = p_a + (1 - r)/2
    items: List[Tuple[TermKey, int]] = []

    for i in range(k + 2):
        ci, unit = powers[i], d // (2 ** (k + 1 - i) * dc**i)
        for m in range(max(0, i - k), level_cap + 1 - max(0, k - i)):
            for a in range(n):
                e = rising_numerator(twice_b[a] + 2 * m, 2, k, i) * unit
                for b in range(n) if e else ():
                    if ci[b][a]:
                        items.append(((0, ((a, m),), ((b, m + k - i),)), e * ci[b][a]))
        # the dilaton shift t_{0,1} -> t_{0,1} - 1: its term touches level
        # 1 + k - i only, so it is kept at caps (0) that drop t_{0,1} itself
        if 1 + k - i <= level_cap:
            e = rising_numerator(twice_b[0] + 2, 2, k, i) * unit
            items.extend(((0, (), ((b, 1 + k - i),)), -e * ci[b][0]) for b in range(n))

        unit //= 2 * de
        for cc in range(n):
            for m in range(k - i):
                w = rising_numerator(twice_b[cc] - 2 * m - 2, 2, k, i) * unit
                w = w if m % 2 else -w  # (-1)^(m+1)
                for b in range(n) if w else ():
                    for a in range(n) if ci[b][cc] else ():
                        diff = tuple(sorted(((a, m), (b, k - m - i - 1))))
                        items.append(((1, (), diff), w * ci[b][cc] * eta_inv[a][cc]))

    ck1, unit = powers[k + 1], d // (2 * de * dc ** (k + 1))
    for a in range(n):
        for b in range(n):
            c = sum(eta[a][cc] * ck1[cc][b] for cc in range(n)) * unit
            items.append(((-1, tuple(sorted(((a, 0), (b, 0)))), ()), c))

    if k == 0:
        items.append(((0, (), ()), const.numerator * (d // const.denominator)))
    return _over(d, items)


def _integral(*mats) -> Tuple[int, List[List[List[int]]]]:
    """Matrices of Fractions as integer matrices over one denominator, the lcm
    of every entry's: ``(d, [d * mat, ...])``."""
    d = lcm(*(x.denominator for mat in mats for row in mat for x in row))
    return d, [[[x.numerator * (d // x.denominator) for x in row] for row in mat] for mat in mats]


# ---------------------------------------------------------------------------
# action on truncated series


def apply_operator(
    op: DifferentialOperator,
    series: TruncatedSeries,
    source_vanishes: Optional[Callable[[int, Monomial], bool]] = None,
    basis_size: int = 1,
) -> Tuple[TruncatedSeries, Set[Tuple[int, Monomial]]]:
    """Apply an operator to a truncated series.

    Returns ``(result, indeterminate)``.  A result key is *indeterminate*
    when some operator term pulls it from a source coefficient lying outside
    the series' caps: truncation silently zeroed that source, so the computed
    value cannot be trusted.  ``source_vanishes(hbar, monomial)``, when given,
    certifies sources known to be zero on structural grounds (e.g. a grading),
    which removes them from the taint analysis.  It must be pure: it may be
    asked about one source more than once, in any order, and is not asked
    about a key already tainted.

    Boundary rule: a term ``(dh, mult, diff)`` reads the key ``(h, mono)``
    from ``(h - dh, mono / mult * diff)``, of weight ``w(mono) + w(diff) -
    w(mult)``, when ``mult`` divides ``mono``.  So only keys in the top weight
    layers or near the ends of the hbar window can be tainted.
    """
    weight, lo, hi = caps = series.caps
    dop, op_items = _numerators(op.terms)
    terms = [
        (dh, mult, diff, c, sum(k + 1 for _, k in diff) - sum(k + 1 for _, k in mult))
        for (dh, mult, diff), c in op_items
    ]
    # the product sums integer numerators over the two common denominators;
    # a term with derivatives meets only the series terms holding diff[0]
    dseries, series_items = _numerators(series.terms)
    by_coord: Dict[Coord, List[Tuple[Tuple[int, Monomial], int]]] = {}
    for entry in series_items:
        for coord, _ in entry[0][1]:
            by_coord.setdefault(coord, []).append(entry)
    acc: Dict[Tuple[int, Monomial], int] = {}
    for dh, mult, diff, c, _ in terms:
        for (h, mono), coeff in by_coord.get(diff[0], ()) if diff else series_items:
            factor, image = exchange(mono, diff, mult)
            if factor:
                key = (h + dh, image)
                acc[key] = acc.get(key, 0) + coeff * c * factor
    out = TruncatedSeries(caps)
    denominator = dop * dseries
    out.terms = {
        key: Fraction(n, denominator) for key, n in acc.items() if n and caps.admits(*key)
    }

    tainted: Set[Tuple[int, Monomial]] = set()
    window = range(lo, hi + 1)
    for w, monos in enumerate(monomials(weight, basis_size)):
        # the terms whose source leaves the caps, with the hbar powers at
        # which it does, by first multiplied coordinate
        live: Dict[Optional[Coord], List[Tuple]] = {}
        for dh, mult, diff, _, dw in terms:
            hs = [h for h in window if w + dw > weight or not lo <= h - dh <= hi]
            if hs:
                live.setdefault(mult[0] if mult else None, []).append((dh, mult, diff, hs))
        for mono in monos if live else ():
            for first in (None, *(coord for coord, _ in mono)):
                for dh, mult, diff, hs in live.get(first, ()):
                    todo = [h for h in hs if (h, mono) not in tainted]
                    divides, source = exchange(mono, mult, diff) if todo else (0, ())
                    if divides:
                        tainted.update(
                            (h, mono)
                            for h in todo
                            if source_vanishes is None or not source_vanishes(h - dh, source)
                        )
    return out, tainted
