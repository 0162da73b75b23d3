"""Constraint operators on the truncated large phase space.

A :class:`DifferentialOperator` is a finite normal-ordered sum of terms

    coefficient * hbar^h * (product of coordinates) * (product of derivatives),

with coordinates labelled ``(class index, descendent level)`` as in
:mod:`hodgeint.phase_space`.

One builder, :func:`general_operator`, makes the level-k operator of any
target from its even cohomology (:class:`CohomologyData`): bracket
coefficients, first-Chern-class multiplication matrices, the dilaton shift,
the quadratic zero mode and the level-0 constant.  The data of a point, P^1,
P^2 and P^3 are built in; :func:`point_operator` is the point case.

Infinite level sums are truncated at a level cap; all arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, perm
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .combinat import bracket
from .errors import DomainError
from .phase_space import Caps, Coord, Monomial, TruncatedSeries, monomial_weight

__all__ = [
    "CohomologyData",
    "DifferentialOperator",
    "point_data",
    "p1_data",
    "p2_data",
    "p3_data",
    "point_operator",
    "general_operator",
    "commutator",
    "apply_operator",
    "enumerate_keys",
]

Half = Fraction(1, 2)
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
        for i in range(n):
            for j in range(n):
                if self.eta[i][j] != self.eta[j][i]:
                    raise DomainError("eta must be symmetric")
        # eta-self-adjointness of c1 multiplication: C^t eta = eta C
        for i in range(n):
            for j in range(n):
                lhs = sum(self.c1[k][i] * self.eta[k][j] for k in range(n))
                rhs = sum(self.eta[i][k] * self.c1[k][j] for k in range(n))
                if lhs != rhs:
                    raise DomainError("c1 multiplication must be eta-self-adjoint")
        return self

    @property
    def size(self) -> int:
        return len(self.p)

    def weight(self, a: int) -> Fraction:
        """Shifted weight b_a = p_a + (1 - r)/2."""
        return self.p[a] + Fraction(1 - self.dim, 2)

    def eta_inverse(self) -> List[List[Fraction]]:
        return _invert(self.eta)

    def c1_power(self, i: int) -> List[List[Fraction]]:
        n = self.size
        out = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
        for _ in range(i):
            out = [
                [
                    sum(self.c1[r][m] * out[m][c] for m in range(n))
                    for c in range(n)
                ]
                for r in range(n)
            ]
        return out

    def constant(self) -> Fraction:
        """The level-0 additive constant (1/48) * integral of
        (3 - r) c_r - 2 c_1 c_{r-1}."""
        return Fraction(1, 48) * (
            (3 - self.dim) * self.chern_top - 2 * self.chern_mixed
        )


def _invert(mat: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Exact inverse of an invertible square matrix (Gauss-Jordan)."""
    n = len(mat)
    aug = [
        [Fraction(x) for x in mat[i]]
        + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _fr(rows: Sequence[Sequence[int]]) -> Tuple[Tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def point_data() -> CohomologyData:
    return CohomologyData(
        "point", 0, (0,), _fr([[1]]), _fr([[0]]), Fraction(1), Fraction(0)
    )


def p1_data() -> CohomologyData:
    return CohomologyData(
        "P1",
        1,
        (0, 1),
        _fr([[0, 1], [1, 0]]),
        _fr([[0, 0], [2, 0]]),  # c_1 = 2 omega
        Fraction(2),
        Fraction(2),  # c_1 c_0
    )


def p2_data() -> CohomologyData:
    return CohomologyData(
        "P2",
        2,
        (0, 1, 2),
        _fr([[0, 0, 1], [0, 1, 0], [1, 0, 0]]),
        _fr([[0, 0, 0], [3, 0, 0], [0, 3, 0]]),  # c_1 = 3h
        Fraction(3),  # c_2
        Fraction(9),  # c_1^2
    )


def p3_data() -> CohomologyData:
    return CohomologyData(
        "P3",
        3,
        (0, 1, 2, 3),
        _fr([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]),
        _fr([[0, 0, 0, 0], [4, 0, 0, 0], [0, 4, 0, 0], [0, 0, 4, 0]]),
        Fraction(4),  # c_3
        Fraction(24),  # c_2 c_1
    )


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

    def __add__(self, other: "DifferentialOperator") -> "DifferentialOperator":
        out = DifferentialOperator._from_canonical(dict(self.terms))
        for key, c in other.terms.items():
            out._put(key, c)
        return out

    def __sub__(self, other: "DifferentialOperator") -> "DifferentialOperator":
        return self + other.scale(Fraction(-1))

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

    def __mul__(self, other: "DifferentialOperator") -> "DifferentialOperator":
        """Normal-ordered composition self . other.

        Each pair of terms gives its plain product, in which no derivative of
        the left factor acts on the right factor, plus the terms of
        :func:`_contracted`, in which at least one does (Leibniz).
        """
        out = DifferentialOperator()
        for (h1, m1, d1), c1 in self.terms.items():
            for (h2, m2, d2), c2 in other.terms.items():
                out.add_term(c1 * c2, h1 + h2, m1 + m2, d1 + d2)
        for key, c in _contracted(self, other):
            out._put(key, c)
        return out

    def pretty(self) -> str:
        """Canonical text form, one term per line, for golden comparisons."""

        def fmt_coord(c: Coord) -> str:
            a, k = c
            return f"t[{a},{k}]"

        lines = []
        for (h, mult, diff) in sorted(self.terms):
            c = self.terms[(h, mult, diff)]
            parts = [str(c)]
            if h:
                parts.append(f"hbar^{h}")
            parts.extend(fmt_coord(x) for x in mult)
            parts.extend("d/d" + fmt_coord(x) for x in diff)
            lines.append(" * ".join(parts))
        return "\n".join(lines)

    def __repr__(self):
        return f"DifferentialOperator<{len(self.terms)} terms>"


def _counts(coords: Tuple[Coord, ...]) -> Dict[Coord, int]:
    out: Dict[Coord, int] = {}
    for c in coords:
        out[c] = out.get(c, 0) + 1
    return out


def _expand(base: Dict[Coord, int], extra: Dict[Coord, int]) -> Tuple[Coord, ...]:
    total = dict(base)
    for c, n in extra.items():
        total[c] = total.get(c, 0) + n
    out: List[Coord] = []
    for c, n in sorted(total.items()):
        out.extend([c] * n)
    return tuple(out)


def _contracted(left: DifferentialOperator, right: DifferentialOperator):
    """The terms of left . right with at least one contraction.

    A contraction is a derivative of a left term acting on a coordinate of a
    right term.  When a coordinate carries d derivatives on the left and m
    factors on the right, s contractions on it can be chosen in
    comb(d, s) * perm(m, s) ways.  Yields one ``(key, coefficient)`` pair per
    choice, not yet combined.  Right terms are indexed by coordinate, so a
    left term only meets the right terms that carry one of its derivative
    coordinates.
    """
    rights = []
    by_coord: Dict[Coord, List[int]] = {}
    for (h2, m2, d2), c2 in right.terms.items():
        mcounts = _counts(m2)
        for coord in mcounts:
            by_coord.setdefault(coord, []).append(len(rights))
        rights.append((h2, mcounts, _counts(d2), c2))
    for (h1, m1, d1), c1 in left.terms.items():
        dcounts = _counts(d1)
        base = _counts(m1)
        for i in {i for coord in dcounts for i in by_coord.get(coord, ())}:
            h2, mcounts, d2counts, c2 = rights[i]
            shared = [coord for coord in dcounts if coord in mcounts]
            for choice in _contractions(shared, dcounts, mcounts):
                if not choice:
                    continue
                ways = 1
                newm = dict(mcounts)
                newd = dict(dcounts)
                for coord, s in choice.items():
                    ways *= comb(dcounts[coord], s) * perm(mcounts[coord], s)
                    newm[coord] -= s
                    newd[coord] -= s
                mult = _expand(base, newm)
                diff = _expand(d2counts, newd)
                yield (h1 + h2, mult, diff), c1 * c2 * ways


def _contractions(shared, dcounts, mcounts):
    """Every choice of how many derivative factors contract per shared
    coordinate, as {coord: s} without the zero entries; {} comes first."""
    if not shared:
        yield {}
        return
    head, rest = shared[0], shared[1:]
    for sub in _contractions(rest, dcounts, mcounts):
        yield sub
        for s in range(1, min(dcounts[head], mcounts[head]) + 1):
            yield {**sub, head: s}


def commutator(
    a: DifferentialOperator, b: DifferentialOperator
) -> DifferentialOperator:
    """[a, b] = a . b - b . a.

    The plain products of a . b and b . a are equal term by term and
    cancel, so only the contracted terms of each order are summed.
    """
    out = DifferentialOperator()
    for key, c in _contracted(a, b):
        out._put(key, c)
    for key, c in _contracted(b, a):
        out._put(key, -c)
    return out


# ---------------------------------------------------------------------------
# builders


def point_operator(k: int, level_cap: int) -> DifferentialOperator:
    """The point constraint operator of level k >= -1, truncated by level: the
    point case of :func:`general_operator`, with half-integer weights."""
    return general_operator(k, point_data(), level_cap)


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
    """
    if k < -1:
        raise DomainError("level must be >= -1")
    n = data.size
    eta_inv = data.eta_inverse()
    powers = [data.c1_power(i) for i in range(k + 2)]
    op = DifferentialOperator()

    for i in range(k + 2):
        ci = powers[i]
        for m in range(max(0, i - k), level_cap + 1):
            if m + k - i > level_cap:
                break
            for a in range(n):
                coeff_base = bracket(data.weight(a) + m, k, i)
                if coeff_base == 0:
                    continue
                for b in range(n):
                    if ci[b][a] == 0:
                        continue
                    c = coeff_base * ci[b][a]
                    op.add_term(c, mult=[(a, m)], diff=[(b, m + k - i)])
        # the dilaton shift t_{0,1} -> t_{0,1} - 1: its term touches level
        # 1 + k - i only, so it is kept at caps (0) that drop t_{0,1} itself
        if 1 + k - i <= level_cap:
            shift = bracket(data.weight(0) + 1, k, i)
            for b in range(n):
                op.add_term(-shift * ci[b][0], diff=[(b, 1 + k - i)])

    for i in range(k + 2):
        ci = powers[i]
        for m in range(k - i):
            for cc in range(n):
                w = (
                    Half
                    * Fraction(-1) ** (m + 1)
                    * bracket(data.weight(cc) - m - 1, k, i)
                )
                if w == 0:
                    continue
                for b in range(n):
                    if ci[b][cc] == 0:
                        continue
                    for a in range(n):
                        if eta_inv[a][cc] == 0:
                            continue
                        op.add_term(
                            w * ci[b][cc] * eta_inv[a][cc],
                            hbar=1,
                            diff=[(a, m), (b, k - m - i - 1)],
                        )

    ck1 = powers[k + 1]
    for a in range(n):
        for b in range(n):
            c = Half * sum(data.eta[a][cc] * ck1[cc][b] for cc in range(n))
            if c:
                op.add_term(c, hbar=-1, mult=[(a, 0), (b, 0)])

    if k == 0:
        op.add_term(data.constant())
    return op


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
    which removes them from the taint analysis.

    Boundary rule: a term ``(dh, mult, diff)`` reads the key ``(h, mono)``
    from ``(h - dh, mono / mult * diff)``, of weight ``w(mono) + w(diff) -
    w(mult)``, when ``mult`` divides ``mono``.  So only keys in the top weight
    layers or near the ends of the hbar window can be tainted.
    """
    weight, lo, hi = caps = series.caps
    terms = [
        (dh, mult, diff, c, sum(k + 1 for _, k in diff) - sum(k + 1 for _, k in mult))
        for (dh, mult, diff), c in op.terms.items()
    ]
    # a term with derivatives meets only the series terms holding diff[0]
    by_coord: Dict[Coord, List[Tuple[Tuple[int, Monomial], Fraction]]] = {}
    for entry in series.terms.items():
        for coord, _ in entry[0][1]:
            by_coord.setdefault(coord, []).append(entry)
    out = TruncatedSeries(caps)
    for dh, mult, diff, c, _ in terms:
        for (h, mono), coeff in by_coord.get(diff[0], ()) if diff else series.terms.items():
            src, factor = _differentiate(mono, diff)
            if src is None:
                continue
            d = dict(src)
            for coord in mult:
                d[coord] = d.get(coord, 0) + 1
            out._add((h + dh, tuple(sorted(d.items()))), coeff * c * factor)

    tainted: Set[Tuple[int, Monomial]] = set()
    layers: Dict[int, List[Monomial]] = {}
    for _, mono in enumerate_keys(Caps(weight, 0, 0), basis_size):
        layers.setdefault(monomial_weight(mono), []).append(mono)
    for h in range(lo, hi + 1):
        for w, monos in layers.items():
            # the terms whose source leaves the caps, by first multiplied coordinate
            live: Dict[Optional[Coord], List[TermKey]] = {}
            for dh, mult, diff, _, dw in terms:
                if w + dw > weight or not lo <= h - dh <= hi:
                    live.setdefault(mult[0] if mult else None, []).append((dh, mult, diff))
            for mono in monos if live else ():
                held = dict(mono)
                sources = (
                    (h - dh, _source_key(held, mult, diff))
                    for first in (None, *held)
                    for dh, mult, diff in live.get(first, ())
                    if all(held.get(x, 0) >= mult.count(x) for x in mult)
                )
                if any(source_vanishes is None or not source_vanishes(*s) for s in sources):
                    tainted.add((h, mono))
    return out, tainted


def _differentiate(mono: Monomial, diff: Tuple[Coord, ...]):
    d = dict(mono)
    factor = 1
    for coord in diff:
        e = d.get(coord, 0)
        if e == 0:
            return None, 0
        factor *= e
        if e == 1:
            del d[coord]
        else:
            d[coord] = e - 1
    return tuple(sorted(d.items())), factor


def _source_key(held: Dict[Coord, int], mult, diff) -> Monomial:
    """The monomial whose coefficient an operator term reads to produce the
    result monomial with exponents ``held``, which ``mult`` divides."""
    d = dict(held)
    for coord in mult:
        if d[coord] == 1:
            del d[coord]
        else:
            d[coord] -= 1
    for coord in diff:
        d[coord] = d.get(coord, 0) + 1
    return tuple(sorted(d.items()))


def enumerate_keys(caps: Caps, basis_size: int):
    """All (hbar, monomial) keys admitted by the caps, over coordinates
    (a, level) with a < basis_size and level < weight cap."""
    coords = [
        (a, lvl)
        for a in range(basis_size)
        for lvl in range(caps.weight)  # weight of (a, lvl) is lvl + 1
    ]
    monos: List[Monomial] = []

    def rec2(idx: int, budget: int, acc: List[Tuple[Coord, int]]) -> None:
        if idx == len(coords):
            monos.append(tuple(acc))
            return
        w = coords[idx][1] + 1
        rec2(idx + 1, budget, acc)
        e = 1
        while e * w <= budget:
            acc.append((coords[idx], e))
            rec2(idx + 1, budget - e * w, acc)
            acc.pop()
            e += 1

    rec2(0, caps.weight, [])
    for h in range(caps.hbar_min, caps.hbar_max + 1):
        for m in monos:
            yield h, tuple(sorted(m))
