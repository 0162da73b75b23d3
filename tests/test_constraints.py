"""Coefficient extraction from the constraint families.

The x/y evaluators compute multi-derivatives of expressions that must vanish
identically; the tests sweep levels, genera, and derivative patterns, and
check the surface x family against linear equations recorded while its
lambda_g lambda_{g-2} integrals had no value beyond genus 2.
"""

from fractions import Fraction

import pytest

from hodgeint.combinat import multisets
from hodgeint.constraints import x_curve, x_surface, y_curve, y_surface
from hodgeint.errors import MAX_POINTS, DomainError, LimitError
from hodgeint.hodge import lambda_g_gm2_or_zero

F = Fraction

DERIV_PATTERNS = [
    (),
    (0,),
    (1,),
    (2,),
    (0, 0),
    (1, 0),
    (2, 1),
    (3, 0, 0),
    (2, 2, 1),
]


class TestCurveFamilies:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_x_curve_vanishes(self, k, g):
        for derivs in DERIV_PATTERNS:
            assert x_curve(k, g, derivs) == 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("ell", [0, 1, 2, 3])
    def test_y_curve_vanishes(self, k, g, ell):
        for derivs in DERIV_PATTERNS[:6]:
            assert y_curve(k, g, ell, derivs) == 0


class TestSurfaceFamilies:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("g", [1, 2])
    def test_x_surface_determined_and_vanishing(self, k, g):
        # genus <= 2 reads l_g l_{g-2} from the lambda_g family or the
        # genus-1 slot, with no solve
        for derivs in DERIV_PATTERNS:
            assert x_surface(k, g, derivs) == 0

    def test_x_surface_vanishes_beyond_genus_two(self):
        # every coefficient with g = 3..5, k <= 6 and at most three
        # derivatives on the family's grading (k + sum D - |D| = g - 1; the
        # others are 0 term by term): the ones the l_g l_{g-2} solve used
        # vanish by construction, the rest check the solved values
        count = 0
        for g in range(3, 6):
            for k in range(1, 7):
                for n in range(4):
                    for derivs in multisets(n, g - 1 - k + n):
                        assert x_surface(k, g, derivs) == 0, (k, g, derivs)
                        count += 1
        assert count == 91

    @pytest.mark.parametrize(
        "k,g,derivs,scalar,symbolic",
        [
            (2, 3, (), F(41, 774144), {(3, (3,)): F(-15, 8)}),
            (1, 3, (2,), F(103, 1935360), {(3, (2, 2)): F(-3, 4), (3, (3,)): F(15, 4)}),
            (3, 3, (0,), F(41, 193536), {(3, (4, 0)): F(-105, 16), (3, (3,)): F(-15, 16)}),
            (3, 4, (), F(127, 17694720), {(4, (4,)): F(-105, 16)}),
            (
                2,
                4,
                (2, 1),
                F(11, 98304),
                {(4, (3, 2, 1)): F(-15, 8), (4, (4, 1)): F(105, 8), (4, (3, 2)): F(15, 8)},
            ),
            (1, 4, (2, 2), F(2309, 77414400), {(4, (2, 2, 2)): F(-3, 4), (4, (3, 2)): F(15, 2)}),
            (4, 5, (1,), F(49, 3604480), {(5, (5, 1)): F(-945, 32), (5, (5,)): F(945, 32)}),
            (2, 5, (3,), F(1861, 1362493440), {(5, (3, 3)): F(-15, 8), (5, (5,)): F(315, 8)}),
            (
                5,
                5,
                (0,),
                F(147, 14417920),
                {(5, (6, 0)): F(-10395, 64), (5, (5,)): F(-945, 64)},
            ),
            (3, 5, (2, 0), F(0), {}),
        ],
    )
    def test_x_surface_values_beyond_genus_two(self, k, g, derivs, scalar, symbolic):
        # linear equations recorded while l_g l_{g-2} had no value at g >= 3:
        # scalar is the sum of the other terms and symbolic the coefficients
        # of the l_g l_{g-2} unknowns.  Four rows, (3,3,(0,)), (2,4,(2,1)),
        # (4,5,(1,)) and (5,5,(0,)), lead with a key the solve takes by string
        # or dilaton, so they are equations the solve does not use
        values = sum(c * lambda_g_gm2_or_zero(*atom) for atom, c in symbolic.items())
        assert scalar + values == 0
        assert x_surface(k, g, derivs) == 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("ell", [0, 1, 2])
    def test_y_surface_vanishes(self, k, g, ell):
        for derivs in DERIV_PATTERNS[:6]:
            assert y_surface(k, g, ell, derivs) == 0


class TestDomain:
    def test_level_must_be_positive(self):
        with pytest.raises(DomainError):
            x_curve(0, 2)
        with pytest.raises(DomainError):
            y_curve(0, 2, 1)
        with pytest.raises(DomainError):
            x_surface(0, 2)
        with pytest.raises(DomainError):
            y_surface(0, 2, 1)

    @pytest.mark.parametrize(
        "evaluator, args, cap",
        [
            (x_curve, (1, 2), MAX_POINTS - 1),
            (x_surface, (1, 2), MAX_POINTS - 1),
            (y_curve, (1, 2, 0), MAX_POINTS - 2),
            (y_surface, (1, 2, 0), MAX_POINTS - 2),
        ],
    )
    def test_derivative_limit(self, evaluator, args, cap):
        # the evaluators add tau_k (and tau_l for y) to the derivatives; the
        # limit used to name that total, which the caller never passed
        evaluator(*args, [0] * cap)
        with pytest.raises(LimitError) as exc:
            evaluator(*args, [0] * (cap + 1))
        assert str(exc.value) == (
            f"the number of derivatives is at most {cap}, got {cap + 1}"
        )

    def test_negative_ell(self):
        with pytest.raises(DomainError):
            y_curve(1, 2, -1)
        with pytest.raises(DomainError):
            y_surface(1, 2, -1)
