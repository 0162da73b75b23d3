"""Constraint operators: construction, algebra, specializations, application."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hodgeint.combinat import bracket
from hodgeint.errors import DomainError
from hodgeint.operators import (
    DifferentialOperator,
    apply_operator,
    commutator,
    general_operator,
    p1_data,
    p2_data,
    p3_data,
    point_data,
    point_operator,
)
from hodgeint.phase_space import Caps, TruncatedSeries

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
        data = maker()
        big = 4 + 8
        ops = {k: general_operator(k, data, big) for k in range(-1, 5)}
        for k in (-1, 0, 1, 2):
            for l in (-1, 0, 1, 2):
                if k + l < -1:
                    continue
                lhs = commutator(ops[k], ops[l]).level_filter(4)
                rhs = ops[k + l].scale(F(k - l)).level_filter(4)
                assert (lhs - rhs).is_zero(), (maker.__name__, k, l)

    @pytest.mark.parametrize("maker", [p1_data, p2_data])
    def test_commutator_equals_both_products(self, maker):
        data = maker()
        ops = {k: general_operator(k, data, CAP) for k in range(-1, 4)}
        for k, a in ops.items():
            for l, b in ops.items():
                assert commutator(a, b).terms == (a * b - b * a).terms, (k, l)

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


# each side's doubled derivative meets a repeated factor of the other side,
# so both orders contract up to two factors of one coordinate
_REPEATED = [(F(1), 1, [(0, 0), (0, 0)], [(0, 1), (0, 1)])]
_SHARED = [(F(-2), -1, [(0, 1), (0, 1), (0, 1)], [(0, 0), (0, 0)])]


class TestCompositionProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_terms, max_size=4), st.lists(_terms, max_size=4))
    @example(_REPEATED, _SHARED)
    def test_commutator_equals_both_products(self, ta, tb):
        a, b = _operator(ta), _operator(tb)
        assert commutator(a, b).terms == (a * b - b * a).terms

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_terms, max_size=4), st.lists(_terms, max_size=4))
    @example(_REPEATED, _SHARED)
    def test_product_acts_as_successive_application(self, ta, tb):
        # a * b has at most 6 derivatives, so it is fixed by its action on
        # the monomials of degree <= 6, each taken alone
        a, b = _operator(ta), _operator(tb)
        ab = a * b
        for mono in _MONOMIALS:
            f = {(0, mono): F(1)}
            assert _act(ab, f) == _act(a, _act(b, f)), mono


class TestApply:
    def _caps(self):
        return Caps(weight=6, hbar_min=-1, hbar_max=2)

    def test_multiplication(self):
        caps = self._caps()
        one = TruncatedSeries(caps, {(0, ()): F(1)})
        op = DifferentialOperator()
        op.add_term(F(1), mult=[(0, 0)])
        res, tainted = apply_operator(op, one)
        assert res.coefficient(0, (((0, 0), 1),)) == 1

    def test_differentiation_with_exponent_factor(self):
        caps = self._caps()
        series = TruncatedSeries(caps, {(0, (((0, 1), 2),)): F(1)})  # t_1^2
        op = DifferentialOperator()
        op.add_term(F(1), diff=[(0, 1)])
        res, _ = apply_operator(op, series)
        assert res.coefficient(0, (((0, 1), 1),)) == 2

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
