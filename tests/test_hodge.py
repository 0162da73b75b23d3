"""Hodge-class integral families: closed forms, solvers, golden constants."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgeint.combinat import multisets
from hodgeint.errors import DomainError
from hodgeint.hodge import (
    c_constant,
    gg_const,
    kappa_lambda_integral,
    lambda_cube,
    lambda_g,
    lambda_g_gm1,
    lambda_g_gm1_or_zero,
    lambda_g_gm2_or_zero,
    lambda_gm1,
)

F = Fraction


class TestGoldenConstants:
    def test_gg_const(self):
        # |B_2g| / (2^{2g-1} (2g-1)!! 2g): g = 1 gives (1/6)/(2*1*2) = 1/24
        assert gg_const(1) == F(1, 24)
        assert gg_const(2) == F(1, 30) / (8 * 3 * 4)

    def test_lambda_cube(self):
        assert lambda_cube(2) == F(1, 2880)
        assert lambda_cube(3) == F(1, 725760)


class TestClosedVsRecursion:
    def test_lambda_g_genus_zero_is_psi(self):
        from hodgeint.psi import psi_integral

        assert lambda_g(0, (0, 0, 0)) == psi_integral(0, (0, 0, 0))
        assert lambda_g(0, (1, 0, 0, 0)) == psi_integral(0, (1, 0, 0, 0))


class TestLambdaGm1:
    def test_one_point_is_c_constant(self):
        for g in range(1, 5):
            assert lambda_gm1(g, (2 * g - 1,)) == c_constant(g)

    def test_genus_one_reduces_to_psi(self):
        from hodgeint.psi import psi_integral

        # lambda_0 = 1, so the genus-1 family is the pure psi integral
        assert lambda_gm1(1, (1, 1)) == psi_integral(1, (1, 1))
        assert lambda_gm1(1, (2, 1, 0)) == psi_integral(1, (2, 1, 0))

    def test_string_and_dilaton(self):
        for g in (2, 3):
            base = (2 * g - 1,)
            v = lambda_gm1(g, base)
            assert lambda_gm1(g, base + (1,)) == (2 * g - 1) * v
            assert lambda_gm1(g, (2 * g, 0)) == v  # string lowers 2g -> 2g-1

    def test_dimension_mismatch_is_zero(self):
        assert lambda_gm1(2, (1, 1)) == 0
        assert lambda_gm1(3, (2,)) == 0


class TestGm2Provider:
    def test_genus_one_vanishes(self):
        # lambda_{-1} = 0
        assert lambda_g_gm2_or_zero(1, (0,)) == 0

    def test_genus_two_is_lambda_g(self):
        # lambda_0 = 1, so the pair collapses to lambda_2 alone
        assert lambda_g_gm2_or_zero(2, (1,)) == lambda_g(2, (1,))

    def test_solved_values(self):
        # solved from x_surface; the recorded rows and the vanishing sweep in
        # test_constraints.py check the relations they must satisfy
        assert lambda_g_gm2_or_zero(3, (3,)) == F(41, 1451520)
        assert lambda_g_gm2_or_zero(3, (2, 2)) == F(11, 51840)
        assert lambda_g_gm2_or_zero(4, (3, 2)) == F(1879, 116121600)
        # string and dilaton steps on top of the one-point value
        assert lambda_g_gm2_or_zero(3, (4, 0)) == F(41, 1451520)
        assert lambda_g_gm2_or_zero(3, (3, 1)) == 5 * F(41, 1451520)


def _kappa_triples(g):
    """Every ordered triple of kappa indices >= 1 of total degree g - 2."""
    return [
        t for t in itertools.product(range(1, g), repeat=3) if sum(t) == g - 2
    ]


def _set_partitions(m):
    """The set partitions of range(m), as lists of blocks, one per restricted
    growth string: position i joins one of the blocks before it or opens a
    new one."""
    if m == 0:
        return [[]]
    out = []
    for labels in itertools.product(range(m), repeat=m):
        if labels[0] == 0 and all(a <= max(labels[:i]) + 1 for i, a in enumerate(labels) if i):
            out.append([[i for i in range(m) if labels[i] == b] for b in range(max(labels) + 1)])
    return out


class TestKappa:
    def test_single_index_is_one_point_descendent(self):
        # <kappa_a l_g l_{g-1}>_g = <tau_{a+1} l_g l_{g-1}>_{g,1}
        assert kappa_lambda_integral(3, (1,)) == lambda_g_gm1(3, (2,))
        assert kappa_lambda_integral(4, (2,)) == lambda_g_gm1(4, (3,))

    def test_two_indices_partition_formula(self):
        # <kappa_1^2 l l> = <tau_2 tau_2 l l> - <tau_3 l l>
        want = lambda_g_gm1(4, (2, 2)) - lambda_g_gm1(4, (3,))
        assert kappa_lambda_integral(4, (1, 1)) == want

    def test_three_indices_regression(self):
        # a (|B|-1)! block weight in the inversion gave 289/63866880 here
        assert kappa_lambda_integral(5, (1, 1, 1)) == F(1, 221760)

    @pytest.mark.parametrize("g", range(5, 8))
    def test_three_indices_partition_formula(self, g):
        # kappa_a kappa_b kappa_c = P(a+1, b+1, c+1) - sum over pairs
        # P(pair sum + 1, other + 1) + P(a+b+c+1), P = <... | l_g l_{g-1}>;
        # below genus 5 no triple has the degree g - 2
        P = lambda_g_gm1
        for a, b, c in _kappa_triples(g):
            want = (
                P(g, (a + 1, b + 1, c + 1))
                - P(g, (a + b + 1, c + 1))
                - P(g, (a + c + 1, b + 1))
                - P(g, (b + c + 1, a + 1))
                + P(g, (a + b + c + 1,))
            )
            assert kappa_lambda_integral(g, (a, b, c)) == want

    @pytest.mark.parametrize("g", range(5, 8))
    def test_three_indices_forward_identity(self, g):
        # pi_* psi^{a+1} psi^{b+1} psi^{c+1} sums one kappa per cycle of each
        # permutation of {a, b, c}: the two 3-cycles give 2 kappa_{a+b+c}
        K = kappa_lambda_integral
        for a, b, c in _kappa_triples(g):
            pushed = (
                K(g, (a, b, c))
                + K(g, (a + b, c))
                + K(g, (a + c, b))
                + K(g, (b + c, a))
                + 2 * K(g, (a + b + c,))
            )
            assert pushed == lambda_g_gm1(g, (a + 1, b + 1, c + 1))

    def test_every_small_multiset_matches_the_set_partition_sum(self):
        # each index multiset of at most 7 entries at g <= 10, in both
        # orders, against the sum over set partitions of the positions
        checked = 0
        for g in range(1, 11):
            for m in range(8):
                for part in multisets(m, g - 2 - m):
                    idx = tuple(p + 1 for p in part)
                    want = F(0)
                    for blocks in _set_partitions(m):
                        ks = [sum(idx[i] for i in block) + 1 for block in blocks]
                        want += (-1) ** (m - len(blocks)) * lambda_g_gm1_or_zero(g, ks)
                    for order in (idx, idx[::-1]):
                        got = kappa_lambda_integral(g, order)
                        assert type(got) is Fraction and got == want, (g, order)
                    checked += 1
        assert checked == 66

    def test_ten_equal_indices(self):
        # kappa_1^10 at genus 12: 115,975 set partitions of the positions,
        # 42 partitions of the multiset
        assert kappa_lambda_integral(12, (1,) * 10) == F(907638109440, 1063409347)

    def test_dimension_mismatch_is_zero(self):
        assert kappa_lambda_integral(3, (2,)) == 0
        assert kappa_lambda_integral(5, (1, 1)) == 0

    def test_bad_indices(self):
        with pytest.raises(DomainError):
            kappa_lambda_integral(3, (0, 1))


class TestDomain:
    def test_bad_genus(self):
        with pytest.raises(DomainError):
            lambda_g_gm1(0, (0,))
        with pytest.raises(DomainError):
            lambda_gm1(0, (0,))
        with pytest.raises(DomainError):
            lambda_cube(1)

    def test_negative_exponent(self):
        with pytest.raises(DomainError):
            lambda_g(2, (-1, 2))


@st.composite
def gg_inputs(draw):
    g = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    ks = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return g, tuple(ks)


class TestProperties:
    @given(gg_inputs())
    @settings(max_examples=60, deadline=None)
    def test_lambda_g_gm1_permutation_invariance(self, gk):
        g, ks = gk
        assert lambda_g_gm1(g, ks) == lambda_g_gm1(g, tuple(sorted(ks)))

    @given(gg_inputs())
    @settings(max_examples=60, deadline=None)
    def test_lambda_g_dilaton(self, gk):
        g, ks = gk
        lhs = lambda_g(g, ks + (1,))
        assert lhs == (2 * g - 2 + len(ks)) * lambda_g(g, ks)
