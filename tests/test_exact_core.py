"""Exact-arithmetic utilities: Bernoulli numbers, bracket symbols, the b_g constants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgeint.combinat import (
    LAMBDA_G_GRADING,
    PSI_GRADING,
    bernoulli,
    bracket,
    double_factorial,
    family_key,
    harmonic,
    multinomial,
    stirling_s2,
)
from hodgeint.errors import MAX_POINTS, DomainError, LimitError
from hodgeint.series1d import b_closed_form, b_sequence

F = Fraction


class TestBernoulli:
    def test_small_values(self):
        want = {
            0: F(1),
            1: F(-1, 2),
            2: F(1, 6),
            4: F(-1, 30),
            6: F(1, 42),
            8: F(-1, 30),
            10: F(5, 66),
            12: F(-691, 2730),
        }
        for n, v in want.items():
            assert bernoulli(n) == v

    def test_odd_vanish(self):
        assert all(bernoulli(n) == 0 for n in range(3, 30, 2))

    def test_sum_identity(self):
        # sum_{j<n} C(n,j) B_j = 0 for n >= 2
        from math import comb

        for n in range(2, 20):
            assert sum(comb(n, j) * bernoulli(j) for j in range(n)) == 0

    def test_matches_the_fraction_recurrence(self):
        # the recurrence with one reduced Fraction per addition, as it was
        # written before the sum moved to integers over one denominator
        from math import comb

        ref = [F(1)]
        for n in range(1, 301):
            s = F(0)
            for k in range(n):
                s += comb(n + 1, k) * ref[k]
            ref.append(-s / (n + 1))
        for n, want in enumerate(ref):
            got = bernoulli(n)
            assert type(got) is Fraction and got == want, n


class TestBracket:
    def test_empty_product(self):
        # k = -1: the empty product, only the constant coefficient survives
        assert bracket(F(7, 3), -1, 0) == 1

    def test_linear(self):
        # k = 0: single factor t + x
        x = F(5, 2)
        assert bracket(x, 0, 0) == x
        assert bracket(x, 0, 1) == 1

    @given(
        p=st.integers(-8, 8),
        q=st.integers(1, 4),
        k=st.integers(0, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_polynomial_product(self, p, q, k):
        """[x]^k_i is the t^i coefficient of prod_{j=0}^k (t + x + j): the
        two polynomials of degree k + 1 agree at the k + 2 points t = 0..k+1.
        The coefficients are expanded in test_splits."""
        x = F(p, q)
        for t in range(k + 2):
            product = F(1)
            for j in range(k + 1):
                product *= t + x + j
            assert sum(bracket(x, k, i) * t**i for i in range(k + 2)) == product

    @given(p=st.integers(-8, 8), q=st.integers(1, 4), k=st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_reflection(self, p, q, k):
        """[-x-k]^k_i = (-1)^{k+1+i} [x]^k_i."""
        x = F(p, q)
        for i in range(k + 2):
            assert bracket(-x - k, k, i) == (-1) ** (k + 1 + i) * bracket(x, k, i)


class TestCombinatorics:
    def test_double_factorial(self):
        assert double_factorial(-1) == 1
        assert double_factorial(0) == 1
        assert double_factorial(1) == 1
        assert double_factorial(5) == 15
        assert double_factorial(6) == 48
        assert double_factorial(7) == 105

    def test_multinomial(self):
        assert multinomial(0, ()) == 1
        assert multinomial(3, (1, 1, 1)) == 6
        assert multinomial(4, (2, 2)) == 6
        assert multinomial(5, (3, 1, 1)) == 20

    def test_harmonic(self):
        assert harmonic(1) == 1
        assert harmonic(4) == F(25, 12)

    def test_stirling_first_kind_column_two(self):
        # unsigned Stirling numbers of the first kind c(n, 2)
        assert stirling_s2(3) == 3
        assert stirling_s2(4) == 11
        assert stirling_s2(5) == 50
        assert stirling_s2(6) == 274

    def test_wrong_harmonic_number_is_caught_by_the_cg_suite(self, monkeypatch):
        # c_g is built from H_{2g-1}; the cg suite (AC7) reads |s(2g, 2)| =
        # (2g-1)! H_{2g-1}, which must not share that sum, so an error in
        # H_n from n = 9 shows from g = 5
        from hodgeint import combinat, hodge, verify

        def wrong(n):
            return harmonic(n) + (n >= 9)

        monkeypatch.setattr(combinat, "harmonic", wrong)
        monkeypatch.setattr(hodge, "harmonic", wrong)
        failed = [name for name, ok, _ in verify.suite_cg(8) if not ok]
        assert failed == [f"one-point relation at g={g}" for g in range(5, 9)]


class TestFamilyKey:
    def test_canonical_key_on_the_grading(self):
        assert family_key(2, [2, 3], PSI_GRADING) == (3, 2)
        assert family_key(2, (4,), PSI_GRADING, strict=True) == (4,)
        assert family_key(2, [1, 1], PSI_GRADING, strict=True) is None
        # an empty key is a key, not a zero: the top lambda triple has n = 0
        assert family_key(2, [], (0, 0)) == ()

    @pytest.mark.parametrize(
        "g,ks,gmin,nmin,message",
        [
            (0, [0, 0, 0], 1, 0, "genus must be >= 1"),
            (2, [], 0, 1, "need at least one insertion"),
            (0, [0, 0], 0, 0, "(g, n) = (0, 2) is unstable"),
            (1, [], 0, 0, "(g, n) = (1, 0) is unstable"),
            (1, [-1, 2], 0, 0, "exponents must be >= 0"),
        ],
    )
    def test_domain_errors_only_in_strict_mode(self, g, ks, gmin, nmin, message):
        grading = LAMBDA_G_GRADING
        assert family_key(g, ks, grading, gmin, nmin) is None
        with pytest.raises(DomainError) as exc:
            family_key(g, ks, grading, gmin, nmin, strict=True)
        assert str(exc.value) == message

    @pytest.mark.parametrize("strict", [False, True])
    def test_limit_in_both_modes(self, strict):
        n = MAX_POINTS
        assert family_key(0, [n - 3] + [0] * (n - 1), PSI_GRADING, strict=strict)
        with pytest.raises(LimitError):
            family_key(0, [n - 2] + [0] * n, PSI_GRADING, strict=strict)
        # the limit is checked before the grading
        with pytest.raises(LimitError):
            family_key(0, [0] * (n + 1), PSI_GRADING, strict=strict)


class TestSeries1D:
    def test_b_sequence_matches_bernoulli_closed_form(self):
        for gmax in (10, 40):
            seq = b_sequence(gmax)
            assert seq[0] == 1
            assert seq == [b_closed_form(g) for g in range(gmax + 1)]

    def test_b_closed_form_values(self):
        assert b_closed_form(1) == F(1, 24)
        assert b_closed_form(2) == F(7, 5760)
        assert b_closed_form(5) == F(73, 3503554560)
