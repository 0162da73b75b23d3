"""Constraint operators: construction, algebra, specializations, application."""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hodgeint.errors import DomainError
from hodgeint.hodge import bracket
from hodgeint.operators import (
    CohomologyData,
    DifferentialOperator,
    apply_operator,
    commutator,
    general_operator,
    p1_data,
    p2_data,
    p3_data,
    point_data,
    point_operator,
    projective,
)
from hodgeint.phase_space import Caps, TruncatedSeries, exchange, monomial_weight, monomials
from hodgeint.psi import point_partition
from hodgeint.verify import commutator_residuals

F = Fraction
H = F(1, 2)
CAP = 8


class TestPointOperator:
    def test_level_minus_one_terms(self):
        op = point_operator(-1, CAP)
        # -d_{t_0} + sum t_m d_{t_{m-1}} + t_0^2 / (2 hbar)
        assert op.terms[(0, (), ((0, 0),))] == -1
        assert op.terms[(0, ((0, 1),), ((0, 0),))] == 1
        assert op.terms[(-1, ((0, 0), (0, 0)), ())] == H

    def test_level_zero_constant(self):
        op = point_operator(0, CAP)
        assert op.terms[(0, (), ())] == F(1, 16)
        # (m + 1/2) t_m d_{t_m}
        assert op.terms[(0, ((0, 3),), ((0, 3),))] == F(7, 2)

    def test_level_two_coefficients(self):
        op = point_operator(2, CAP)
        # leading shift term: bracket(3/2, 2, 0) on the dilaton-shifted t_1
        assert op.terms[(0, (), ((0, 3),))] == -bracket(F(3, 2), 2, 0)
        # hbar quadratic term: m = 0 and m = 1 both normal-order to d_0 d_1
        want = H * (-bracket(-H, 2, 0) + bracket(-F(3, 2), 2, 0))
        assert op.terms[(1, (), ((0, 0), (0, 1)))] == want

    def test_bad_level(self):
        with pytest.raises(DomainError):
            point_operator(-2, CAP)


# The displayed coordinate forms of the operators, written out term by term
# as references for general_operator.  Dilaton shifts and order-hbar terms are
# emitted whatever the cap, so the comparisons filter both sides by level.


def _point_form(k, cap):
    """sum [m+1/2]^k_0 (t_m - delta_{m,1}) d_{m+k} + t_0^2 / 2hbar (k = -1)
    + (hbar/2) sum_{m<k} (-1)^{m+1} [-m-1/2]^k_0 d_m d_{k-m-1} + 1/16 (k = 0)."""
    op = DifferentialOperator()
    op.add_term(-bracket(1 + H, k, 0), diff=[(0, k + 1)])
    for m in range(max(0, -k), cap - k + 1):
        op.add_term(bracket(m + H, k, 0), mult=[(0, m)], diff=[(0, m + k)])
    for m in range(k):
        c = H * (-1) ** (m + 1) * bracket(-m - H, k, 0)
        op.add_term(c, hbar=1, diff=[(0, m), (0, k - m - 1)])
    if k == -1:
        op.add_term(H, hbar=-1, mult=[(0, 0), (0, 0)])
    if k == 0:
        op.add_term(F(1, 16))
    return op


def _curve_form(k, cap):
    """Genus-0 curve, k >= 1: identity t (class 0) and point class s
    (class 1), with the Euler characteristic 2 on the c_1 block."""
    op = DifferentialOperator()
    op.add_term(-bracket(1, k, 0), diff=[(0, k + 1)])
    op.add_term(-2 * bracket(1, k, 1), diff=[(1, k)])
    for m in range(cap - k + 1):
        op.add_term(bracket(m, k, 0), mult=[(0, m)], diff=[(0, m + k)])
        op.add_term(bracket(m + 1, k, 0), mult=[(1, m)], diff=[(1, m + k)])
    for m in range(cap - k + 2):
        op.add_term(2 * bracket(m, k, 1), mult=[(0, m)], diff=[(1, m + k - 1)])
    for m in range(k - 1):
        c = 2 * H * (-1) ** (m + 1) * bracket(-m - 1, k, 1)
        op.add_term(c, hbar=1, diff=[(1, m), (1, k - m - 2)])
    return op


def _surface_form(k, cap):
    """Surface, k >= 1, with one (1,1) class s (class 1) of self-intersection
    gram and c_1 = c s, no odd classes: identity t (class 0), point r (class 2)."""
    c, gram = F(3), F(1)  # the hyperplane class of P^2
    csq = c * gram * c
    op = DifferentialOperator()
    op.add_term(-bracket(H, k, 0), diff=[(0, k + 1)])
    op.add_term(-c * bracket(H, k, 1), diff=[(1, k)])
    op.add_term(-csq * bracket(H, k, 2), diff=[(2, k - 1)])
    for m in range(cap - k + 1):
        op.add_term(bracket(m - H, k, 0), mult=[(0, m)], diff=[(0, m + k)])
        op.add_term(bracket(m + H, k, 0), mult=[(1, m)], diff=[(1, m + k)])
        op.add_term(bracket(m + H + 1, k, 0), mult=[(2, m)], diff=[(2, m + k)])
    for m in range(cap - k + 2):
        op.add_term(c * bracket(m - H, k, 1), mult=[(0, m)], diff=[(1, m + k - 1)])
        op.add_term(c * bracket(m + H, k, 1), mult=[(1, m)], diff=[(2, m + k - 1)])
    for m in range(max(0, 2 - k), cap - k + 3):
        op.add_term(csq * bracket(m - H, k, 2), mult=[(0, m)], diff=[(2, m + k - 2)])
    for m in range(k):
        sign = (-1) ** (m + 1)
        op.add_term(
            sign * bracket(-m - H - 1, k, 0), hbar=1, diff=[(2, m), (0, k - m - 1)]
        )
        op.add_term(
            H * sign * bracket(-m - H, k, 0) / gram,
            hbar=1,
            diff=[(1, m), (1, k - m - 1)],
        )
    for m in range(k - 1):
        c1 = c * (-1) ** (m + 1) * bracket(-m - H - 1, k, 1)
        op.add_term(c1, hbar=1, diff=[(2, m), (1, k - m - 2)])
    for m in range(k - 2):
        c2 = csq * H * (-1) ** (m + 1) * bracket(-m - H - 1, k, 2)
        op.add_term(c2, hbar=1, diff=[(2, m), (2, k - m - 3)])
    if k == 1:
        op.add_term(csq * H, hbar=-1, mult=[(0, 0), (0, 0)])
    return op


def _agree(form, k, data, caps=range(9)):
    for cap in caps:
        want = form(k, cap).level_filter(cap)
        got = general_operator(k, data, cap).level_filter(cap)
        assert got.terms == want.terms, cap


class TestSpecializations:
    @pytest.mark.parametrize("k", range(-1, 4))
    def test_point_matches_general(self, k):
        _agree(_point_form, k, point_data())
        for cap in range(9):
            assert point_operator(k, cap).terms == general_operator(
                k, point_data(), cap
            ).terms

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_curve_matches_general_p1(self, k):
        _agree(_curve_form, k, p1_data())

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_surface_matches_general_p2(self, k):
        _agree(_surface_form, k, p2_data())

    @pytest.mark.parametrize("maker", [point_data, p1_data, p2_data, p3_data])
    def test_low_cap_is_the_filtered_high_cap(self, maker):
        # the dilaton shift -[b_0+1]^k_i (c_1^i)_{b0} d_{(b, 1+k-i)} touches
        # level 1+k-i only, so a cap-0 build, which has no t_{0,1}, keeps it
        data = maker()
        for k in range(-1, 4):
            full = general_operator(k, data, 16)
            for cap in range(9):
                got = general_operator(k, data, cap).level_filter(cap)
                assert got.terms == full.level_filter(cap).terms, (k, cap)


class TestAlgebra:
    @pytest.mark.parametrize("maker", [point_data, p1_data, p2_data, p3_data])
    def test_commutators(self, maker):
        for k, l, diff in commutator_residuals(maker(), 2, 4, 12):
            assert diff.is_zero(), (maker.__name__, k, l)

    def test_projective_chern_numbers(self):
        got = [(d.name, d.chern_top, d.chern_mixed) for d in map(projective, range(4))]
        assert got == [("point", 1, 0), ("P1", 2, 2), ("P2", 3, 9), ("P3", 4, 24)]

    def test_singular_pairing_rejected(self):
        with pytest.raises(DomainError, match="eta must be non-degenerate"):
            CohomologyData("bad", 0, (0,), ((0,),), ((0,),), 1, 0)

    def test_operator_arithmetic(self):
        a = DifferentialOperator()
        a.add_term(F(2), mult=[(0, 1)])
        b = DifferentialOperator()
        b.add_term(F(3), diff=[(0, 1)])
        # [mult by 2 t_1, 3 d_1] picks up the contraction -6
        comm = commutator(b, a)
        assert comm.terms == {(0, (), ()): F(6)}

    def test_level_filter(self):
        op = DifferentialOperator()
        op.add_term(F(1), mult=[(0, 5)])
        op.add_term(F(1), mult=[(0, 1)])
        assert op.level_filter(3).terms == {(0, ((0, 1),), ()): F(1)}


def _p1xp1_skewed():
    """P^1 x P^1 in the basis 1, H_1, H_1 + H_2, pt, where H_1^2 = H_2^2 = 0,
    H_1 H_2 = pt and c_1 = 2 H_1 + 2 H_2.  Its pairing is not a permutation
    matrix, so eta and its inverse differ; on every built-in target they
    are equal."""
    eta = [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 2, 0), (1, 0, 0, 0)]
    c1 = [(0, 0, 0, 0), (0, 0, 0, 0), (2, 0, 0, 0), (0, 2, 4, 0)]
    eta, c1 = (tuple(tuple(map(F, row)) for row in m) for m in (eta, c1))
    return CohomologyData("P1xP1", 2, (0, 1, 1, 2), eta, c1, F(4), F(8))


def _p1_fractional():
    """P^1 in the basis 1, 3h: the pairing is 3 times a permutation matrix and
    c_1 = 2h = (2/3)(3h), so eta^{-1} and c_1 have non-integral entries,
    unlike every built-in target's and the skewed P^1 x P^1's."""
    eta = ((F(0), F(3)), (F(3), F(0)))
    c1 = ((F(0), F(0)), (F(2, 3), F(0)))
    return CohomologyData("P1(1,3h)", 1, (0, 1), eta, c1, F(2), F(2))


class TestSkewedPairing:
    """Targets whose eta and eta^{-1} differ."""

    @staticmethod
    def _residual_terms(data):
        """Terms of [L_k, L_l] - (k - l) L_{k+l}, k, l in -1..2, at level cap
        4 from operators built at cap 12."""
        residuals = commutator_residuals(data, 2, 4, 12)
        return sum(len(diff.terms) for _, _, diff in residuals)

    def test_commutators(self):
        for maker in (_p1xp1_skewed, _p1_fractional):
            assert self._residual_terms(maker()) == 0, maker.__name__

    def test_eta_in_place_of_its_inverse_is_caught(self, monkeypatch):
        monkeypatch.setattr(CohomologyData, "eta_inverse", lambda self: self.eta)
        for maker in (_p1xp1_skewed, _p1_fractional):
            assert self._residual_terms(maker()) > 0, maker.__name__


# Random operators on a pool of four coordinates, so terms repeat
# coordinates and share them between multiplications and derivatives.
_POOL = [(0, 0), (0, 1), (1, 0), (1, 1)]
_MONOMIALS = [
    m for d in range(7) for m in itertools.combinations_with_replacement(_POOL, d)
]
_coords = st.lists(st.sampled_from(_POOL), max_size=3)
_terms = st.tuples(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.integers(-1, 2),
    _coords,
    _coords,
)


# Random series for the product: coordinates of two classes and two levels,
# hbar powers on both sides of zero, windows as narrow as one power.
_series_terms = st.tuples(
    st.tuples(
        st.integers(-3, 3),
        st.sampled_from(
            [
                tuple(sorted((x, m.count(x)) for x in set(m)))
                for m in _MONOMIALS
                if len(m) <= 3
            ]
        ),
    ),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
_windows = st.builds(
    lambda w, lo, width: Caps(w, lo, lo + width),
    st.integers(0, 7),
    st.integers(-3, 1),
    st.integers(0, 2),
)


def _operator(terms):
    op = DifferentialOperator()
    for c, h, mult, diff in terms:
        op.add_term(c, hbar=h, mult=mult, diff=diff)
    return op


def _act(op, poly):
    """Apply op to {(hbar, sorted coords): coefficient} by the bare rules:
    differentiate a monomial factor by factor, then multiply."""
    out = {}
    for (h, mono), c in poly.items():
        for (dh, mult, diff), k in op.terms.items():
            rest, factor = list(mono), 1
            for x in diff:
                factor *= rest.count(x)
                if not factor:
                    break
                rest.remove(x)
            else:
                key = (h + dh, tuple(sorted(rest + list(mult))))
                out[key] = out.get(key, 0) + c * k * factor
    return {key: v for key, v in out.items() if v}


def _stored_exactly(terms):
    return all(type(c) is Fraction and c != 0 for c in terms.values())


# coefficients with unrelated denominators, so the common denominators of the
# integer kernels are true lcms and results reduce by a nontrivial gcd
_mixed = st.fractions(min_value=-40, max_value=40, max_denominator=36)
_mixed_terms = st.tuples(_mixed, st.integers(-1, 2), _coords, _coords)
_mixed_series = st.tuples(_series_terms.map(lambda t: t[0]), _mixed)

# each side's doubled derivative meets a repeated factor of the other side,
# so both orders contract up to two factors of one coordinate
_REPEATED = [(F(1), 1, [(0, 0), (0, 0)], [(0, 1), (0, 1)])]
_SHARED = [(F(-2), -1, [(0, 1), (0, 1), (0, 1)], [(0, 0), (0, 0)])]
# x d_x/3 against 3/5 x d_x - 3/5: the contracted x d_x/5 of a . b cancels
# that of b . a
_CANCEL_A = [(F(1, 3), 0, [(0, 0)], [(0, 0)])]
_CANCEL_B = [(F(3, 5), 0, [(0, 0)], [(0, 0)]), (F(-3, 5), 0, [], [])]
# (d_x - x d_x d_x) / 7 kills x^2 / 2
_KILL = [(F(1, 7), 0, [], [(0, 0)]), (F(-1, 7), 0, [(0, 0)], [(0, 0), (0, 0)])]


def _one_shared(d, m):
    """Term lists a, b whose terms share one coordinate, (0, 1), with d
    derivatives in a's term and m factors in b's; b's derivative meets a's
    other factor, so b . a contracts on one coordinate too."""
    return (
        [(F(5, 6), 1, [(1, 0)], [(0, 1)] * d)],
        [(F(-7, 4), 0, [(0, 1)] * m + [(1, 1)], [(1, 0)])],
    )


# a's term has derivatives on two coordinates, both factors of b's term,
# and up to two contractions on one of them
_TWO_SHARED = (
    [(F(3, 8), -1, [], [(0, 0), (0, 0), (0, 1)])],
    [(F(-2, 9), 0, [(0, 0), (0, 0), (0, 1)], [(1, 1)])],
)


class TestCompositionProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_terms, max_size=4), st.lists(_terms, max_size=4))
    @example(_REPEATED, _SHARED)
    def test_commutator_acts_as_successive_applications(self, ta, tb):
        # [a, b] has at most 6 derivatives, so it is fixed by its action on
        # the monomials of degree <= 6, each taken alone
        a, b = _operator(ta), _operator(tb)
        ab = commutator(a, b)
        for mono in _MONOMIALS:
            f = {(0, mono): F(1)}
            ba_f, ab_f = _act(b, _act(a, f)), _act(a, _act(b, f))
            want = {key: ab_f.get(key, 0) - ba_f.get(key, 0) for key in ab_f.keys() | ba_f.keys()}
            assert _act(ab, f) == {key: v for key, v in want.items() if v}, mono


class TestApply:
    def _caps(self):
        return Caps(weight=6, hbar_min=-1, hbar_max=2)

    def test_multiplication(self):
        caps = self._caps()
        one = TruncatedSeries(caps, {(0, ()): F(1)})
        op = DifferentialOperator()
        op.add_term(F(1), mult=[(0, 0)])
        res, tainted = apply_operator(op, one)
        assert res.terms == {(0, (((0, 0), 1),)): 1}

    def test_differentiation_with_exponent_factor(self):
        caps = self._caps()
        series = TruncatedSeries(caps, {(0, (((0, 1), 2),)): F(1)})  # t_1^2
        op = DifferentialOperator()
        op.add_term(F(1), diff=[(0, 1)])
        res, _ = apply_operator(op, series)
        assert res.terms == {(0, (((0, 1), 1),)): 2}

    def test_taint_marks_truncation_boundary(self):
        caps = Caps(weight=4, hbar_min=0, hbar_max=0)
        series = TruncatedSeries(caps, {(0, (((0, 0), 1),)): F(1)})
        op = DifferentialOperator()
        op.add_term(F(1), diff=[(0, 3)])  # sources sit at weight 4 + 4 > cap
        _, tainted = apply_operator(op, series)
        # every admissible key whose source escapes the caps is flagged
        assert (0, (((0, 0), 1),)) in tainted

    def test_source_vanishes_clears_taint(self):
        caps = Caps(weight=4, hbar_min=0, hbar_max=0)
        series = TruncatedSeries(caps, {(0, (((0, 0), 1),)): F(1)})
        op = DifferentialOperator()
        op.add_term(F(1), diff=[(0, 3)])
        _, tainted = apply_operator(op, series, source_vanishes=lambda h, m: True)
        assert tainted == set()


# ---------------------------------------------------------------------------
# Reference implementations: the ungraded loops the operator layer used
# before it pruned by weight and hbar.  They visit every pair and let the
# caps drop what falls outside, so they share no pruning logic with the
# package.


def _sorting_sum(*parts):
    """Sum {(hbar, mult, diff): c} items, sorting every key on insertion."""
    terms = {}
    for items in parts:
        for (h, mult, diff), c in items:
            if c == 0:
                continue
            key = (h, tuple(sorted(mult)), tuple(sorted(diff)))
            new = terms.get(key, F(0)) + c
            if new == 0:
                terms.pop(key, None)
            else:
                terms[key] = new
    return terms


def _rebuild(*parts):
    """The same items put in one by one through add_term."""
    op = DifferentialOperator()
    for items in parts:
        for (h, mult, diff), c in items:
            op.add_term(c, h, mult, diff)
    return op.terms


@lru_cache(maxsize=None)
def _normal_order(word):
    """{(mult, diff): multiplicity} of a word of ("x", coord) factors and
    ("d", coord) derivatives, moving one derivative at a time past one
    factor: d_x . x = x . d_x + 1, and d_x . y = y . d_x for y != x."""
    for i in range(len(word) - 1):
        (first, x), (second, y) = word[i], word[i + 1]
        if first == "d" and second == "x":
            out = dict(_normal_order(word[:i] + (word[i + 1], word[i]) + word[i + 2 :]))
            if x == y:
                for key, n in _normal_order(word[:i] + word[i + 2 :]).items():
                    out[key] = out.get(key, 0) + n
            return out
    mult = tuple(sorted(c for kind, c in word if kind == "x"))
    diff = tuple(sorted(c for kind, c in word if kind == "d"))
    return {(mult, diff): 1}


def _word(m1, d1, m2, d2):
    """The word of the term m1 d1 followed by the term m2 d2."""
    return tuple(
        [("x", c) for c in m1] + [("d", c) for c in d1]
        + [("x", c) for c in m2] + [("d", c) for c in d2]
    )


def _reference_commutator(a, b):
    """[a, b] by normal ordering both words of every pair of terms; a pair
    with no derivative meeting a factor of the other term commutes."""
    parts = []
    for (h1, m1, d1), c1 in a.terms.items():
        for (h2, m2, d2), c2 in b.terms.items():
            if set(d1).isdisjoint(m2) and set(d2).isdisjoint(m1):
                continue
            for sign, word in ((1, _word(m1, d1, m2, d2)), (-1, _word(m2, d2, m1, d1))):
                for (mult, diff), n in _normal_order(word).items():
                    parts.append(((h1 + h2, mult, diff), sign * c1 * c2 * n))
    return _sorting_sum(parts)


def _reference_series_mul(self, other):
    """self * other, every pair of terms, within self's caps."""
    terms = {}
    for (h1, m1), c1 in self.terms.items():
        for (h2, m2), c2 in other.terms.items():
            d = dict(m1)
            for coord, e in m2:
                d[coord] = d.get(coord, 0) + e
            key = (h1 + h2, tuple(sorted(d.items())))
            terms[key] = terms.get(key, 0) + c1 * c2
    return TruncatedSeries(self.caps, terms)


def _reference_exp(series):
    """exp by power iteration: the sum of the powers F^n / n!, each a
    reference product within the caps widened to hold hbar^0.  Every term has
    weight >= 1, so the powers above the weight cap vanish."""
    weight, lo, hi = series.caps
    caps = Caps(weight, min(lo, 0), max(hi, 0))
    base = TruncatedSeries(caps, series.terms)
    power = acc = TruncatedSeries(caps, {(0, ()): F(1)})
    for n in range(1, weight + 1):
        power = _reference_series_mul(power, base)
        power = TruncatedSeries(caps, {key: c / n for key, c in power.terms.items()})
        keys = acc.terms.keys() | power.terms.keys()
        acc = TruncatedSeries(
            caps, {key: acc.terms.get(key, 0) + power.terms.get(key, 0) for key in keys}
        )
    return TruncatedSeries(series.caps, acc.terms)


def _reference_keys(caps, basis_size):
    coords = [(a, lvl) for a in range(basis_size) for lvl in range(caps.weight)]
    monos = []

    def rec(idx, budget, acc):
        if idx == len(coords):
            monos.append(tuple(sorted(acc)))
            return
        w = coords[idx][1] + 1
        rec(idx + 1, budget, acc)
        e = 1
        while e * w <= budget:
            acc.append((coords[idx], e))
            rec(idx + 1, budget - e * w, acc)
            acc.pop()
            e += 1

    rec(0, caps.weight, [])
    return [(h, m) for h in range(caps.hbar_min, caps.hbar_max + 1) for m in monos]


def _reference_apply(op, series, source_vanishes=None, basis_size=1):
    """Every series term against every operator term, then every admitted
    key against every operator term for taint."""
    caps = series.caps
    terms = {}
    for (h, mono), coeff in series.terms.items():
        for (dh, mult, diff), c in op.terms.items():
            d, factor = dict(mono), 1
            for coord in diff:
                factor *= d.get(coord, 0)
                if not factor:
                    break
                d[coord] -= 1
            else:
                for coord in mult:
                    d[coord] = d.get(coord, 0) + 1
                key = (h + dh, tuple(sorted((x, e) for x, e in d.items() if e)))
                terms[key] = terms.get(key, 0) + coeff * c * factor
    tainted = set()
    for h, mono in _reference_keys(caps, basis_size):
        for dh, mult, diff in op.terms:
            d = dict(mono)
            if any(d.get(x, 0) < mult.count(x) for x in mult):
                continue
            for coord in mult:
                d[coord] -= 1
            for coord in diff:
                d[coord] = d.get(coord, 0) + 1
            key = (h - dh, tuple(sorted((x, e) for x, e in d.items() if e)))
            if caps.admits(*key):
                continue
            if source_vanishes is not None and source_vanishes(*key):
                continue
            tainted.add((h, mono))
            break
    return TruncatedSeries(caps, terms), tainted


def _point_grading_vanishes(h, mono):
    return monomial_weight(mono) != 3 * h + 2 * sum(e for _, e in mono)


def _mod3_vanishes(h, mono):
    # a structural-looking predicate that clears some sources and not others
    return (monomial_weight(mono) + h) % 3 != 0


def _random_series(caps, basis_size, seed, size=40):
    rng = random.Random(seed)
    keys = _reference_keys(caps, basis_size)
    picked = rng.sample(keys, min(size, len(keys)))
    return TruncatedSeries(
        caps, {key: F(rng.randint(-9, 9), rng.randint(1, 5)) for key in picked}
    )


_APPLY_CASES = [
    ("point", point_data, 6, None),
    ("point", point_data, 8, None),
    ("point", point_data, 11, None),
    ("P1", p1_data, 4, Caps(4, 0, 0)),
    ("P1", p1_data, 6, Caps(6, -1, 1)),
    ("P2", p2_data, 5, Caps(5, -1, 1)),
    ("P3", p3_data, 4, Caps(4, 0, 1)),
]


class TestGradedKernels:
    @pytest.mark.parametrize("name,maker,weight,caps", _APPLY_CASES)
    def test_apply_matches_reference(self, name, maker, weight, caps):
        data = maker()
        if caps is None:
            series, basis, vanishes = point_partition(weight, 3), 1, _point_grading_vanishes
        else:
            series, basis, vanishes = _random_series(caps, data.size, weight), data.size, _mod3_vanishes
        for k in range(-1, 3):
            op = general_operator(k, data, weight)
            for sv in (None, vanishes):
                got, got_taint = apply_operator(op, series, sv, basis)
                want, want_taint = _reference_apply(op, series, sv, basis)
                assert got.terms == want.terms, (name, k, sv)
                assert got_taint == want_taint, (name, k, sv)

    @pytest.mark.parametrize("basis_size", range(4))
    def test_monomials_list_each_monomial_once_by_weight(self, basis_size):
        for weight in range(9):
            layers = monomials(weight, basis_size)
            assert len(layers) == weight + 1
            flat = [m for layer in layers for m in layer]
            assert len(flat) == len(set(flat)), weight
            for w, layer in enumerate(layers):
                for m in layer:
                    assert m == tuple(sorted(m)) and all(e > 0 for _, e in m)
                    assert monomial_weight(m) == w
            want = {m for _, m in _reference_keys(Caps(weight, 0, 0), basis_size)}
            assert set(flat) == want, weight

    def test_exchange_divides_with_the_falling_factorial(self):
        mono = (((0, 0), 3), ((0, 2), 1))
        # d^2/dt_0^2 brings down 3 * 2 and leaves t_0 t_2, then times t_1
        want = (((0, 0), 1), ((0, 1), 1), ((0, 2), 1))
        assert exchange(mono, ((0, 0), (0, 0)), ((0, 1),)) == (6, want)
        assert exchange(mono, ((0, 2),), ()) == (1, (((0, 0), 3),))
        assert exchange(mono, ((0, 2), (0, 2)), ((0, 1),)) == (0, ())
        assert exchange(mono, ((1, 0),), ()) == (0, ())

    def test_apply_taints_only_boundary_layers(self):
        # the terms of L_1 raise the source weight by at most 3 (the dilaton
        # shift d/dt_2) and the hbar power by at most 1 (hbar d d), so only
        # the top three weight layers and the lowest hbar can be tainted
        z = point_partition(8, 2)
        _, tainted = apply_operator(point_operator(1, 8), z)
        assert tainted
        assert all(
            monomial_weight(m) >= 6 or h == z.caps.hbar_min for h, m in tainted
        )
        assert any(monomial_weight(m) == 8 and h > z.caps.hbar_min for h, m in tainted)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(_series_terms.filter(lambda t: t[0][1]), max_size=8),
        st.integers(0, 7),
        st.integers(0, 2),
    )
    def test_exp_matches_reference_power_iteration(self, tf, weight, margin):
        # a product of weight <= the cap has 1 to cap factors, so this window
        # holds every sub-product but the empty one, which exp adds at hbar^0
        hs = [h for (h, _), _ in tf] or [0]
        lo, hi = min(hs), max(hs)
        caps = Caps(weight, min(lo, weight * lo) - margin, max(hi, weight * hi) + margin)
        f = TruncatedSeries(caps, dict(tf))
        got, want = f.exp(), _reference_exp(f)
        assert got.caps == want.caps == caps
        assert got.terms == want.terms
        assert _stored_exactly(got.terms)

    def test_exp_rejects_a_term_of_weight_zero(self):
        for key in [(0, ()), (1, ())]:
            with pytest.raises(ValueError, match="positive weight"):
                TruncatedSeries(Caps(4, -1, 1), {key: F(1)}).exp()

    @pytest.mark.parametrize("weight,genus", [(8, 2), (11, 1), (11, 4)])
    def test_point_partition_matches_reference_product(self, monkeypatch, weight, genus):
        got = point_partition(weight, genus)
        monkeypatch.setattr(TruncatedSeries, "exp", _reference_exp)
        want = point_partition(weight, genus)
        assert got.caps == want.caps
        assert got.terms == want.terms


class TestCanonicalKeys:
    def test_constructor_sorts_keys(self):
        op = DifferentialOperator({(1, ((0, 2), (0, 1)), ((1, 0), (0, 3))): F(2)})
        assert op.terms == {(1, ((0, 1), (0, 2)), ((0, 3), (1, 0))): F(2)}

    def test_unsorted_duplicates_combine_and_cancel(self):
        op = DifferentialOperator(
            {(0, ((0, 2), (0, 1)), ()): F(1), (0, ((0, 1), (0, 2)), ()): F(-1)}
        )
        assert op.is_zero()
        op.add_term(F(3), mult=[(1, 1), (0, 0)])
        op.add_term(F(-3), mult=[(0, 0), (1, 1)])
        assert op.terms == {}

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(_terms, max_size=6),
        st.lists(_terms, max_size=6),
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
        st.integers(0, 1),
    )
    @example(_REPEATED, _REPEATED, F(0), 1)
    def test_sums_equal_sorting_rebuilds(self, ta, tb, c, cap):
        a, b = _operator(ta), _operator(tb)
        items_a, items_b = list(a.terms.items()), list(b.terms.items())
        scaled = [(k, v * c) for k, v in items_a]
        negated = [(k, -v) for k, v in items_b]
        kept = [(k, v) for k, v in items_a if all(l <= cap for _, l in k[1] + k[2])]
        for got, parts in [
            (a.scale(c), [scaled]),
            (a - b, [items_a, negated]),
            (a.level_filter(cap), [kept]),
        ]:
            assert got.terms == _sorting_sum(*parts) == _rebuild(*parts)
        assert (a - a).is_zero() and (a - a.scale(F(1))).is_zero()


class TestIntegerKernels:
    """The integer kernels against the Fraction references above, on
    coefficients with unrelated denominators."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(_mixed_terms, max_size=5),
        st.lists(_mixed_terms, max_size=5),
        _mixed,
    )
    @example(_CANCEL_A, _CANCEL_B, F(0))
    @example(_REPEATED, _SHARED, F(-7, 3))
    # each contraction shape: one shared coordinate with (d, m) derivatives
    # and factors on it, and two shared coordinates in one pair of terms
    @example(*_one_shared(1, 1), F(1, 2))
    @example(*_one_shared(2, 1), F(-5, 3))
    @example(*_one_shared(1, 2), F(7, 10))
    @example(*_one_shared(2, 2), F(-1, 12))
    @example(*_TWO_SHARED, F(4, 15))
    def test_commutator_equals_fraction_kernel(self, ta, tb, c):
        a, b = _operator(ta), _operator(tb)
        # b - c a cancels part of [a, b - c a] against c [a, a] = 0
        for x, y in [(a, b), (b, a), (a, b - a.scale(c)), (a, a)]:
            comm = commutator(x, y)
            assert comm.terms == _reference_commutator(x, y)
            assert _stored_exactly(comm.terms)
        assert commutator(a, a).is_zero()
        if (ta, tb) == (_CANCEL_A, _CANCEL_B):
            assert commutator(a, b).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_mixed_terms, max_size=5), st.lists(_mixed_series, max_size=8), _windows)
    @example(_KILL, [((0, (((0, 0), 2),)), F(1, 2))], Caps(4, 0, 0))
    def test_apply_equals_fraction_kernel(self, tops, tseries, caps):
        op, series = _operator(tops), TruncatedSeries(caps, dict(tseries))
        got, got_taint = apply_operator(op, series)
        want, want_taint = _reference_apply(op, series)
        assert got.caps == caps
        assert got.terms == want.terms
        assert got_taint == want_taint
        assert _stored_exactly(got.terms)
        if tops == _KILL:
            assert got.terms == {}

    @pytest.mark.parametrize("maker", [point_data, p1_data, p2_data, p3_data])
    def test_builds_store_nonzero_fractions(self, maker):
        ops = [general_operator(k, maker(), 8) for k in range(-1, 4)]
        for op in ops:
            assert _stored_exactly(op.terms)
        for a in ops:
            for b in ops:
                comm = commutator(a, b).terms
                assert comm == _reference_commutator(a, b)
                assert _stored_exactly(comm)
        z = point_partition(8, 2)
        for k in range(-1, 3):
            op = point_operator(k, 8)
            got, got_taint = apply_operator(op, z)
            want, want_taint = _reference_apply(op, z)
            assert got.terms == want.terms and got_taint == want_taint
            assert _stored_exactly(got.terms)
