"""Pure psi-class intersection numbers."""

import sys
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgeint import combinat, errors, psi, store
from hodgeint.combinat import multinomial, multisets
from hodgeint.constraints import x_curve, x_surface
from hodgeint.errors import MAX_POINTS, DomainError, LimitError
from hodgeint.hodge import (
    c_constant,
    gg_const,
    lambda_g,
    lambda_g_gm1,
    lambda_g_gm1_solver,
    lambda_g_gm2_or_zero,
    lambda_g_solver,
    lambda_gm1,
)
from hodgeint.mumford import degree0_gw
from hodgeint.psi import point_partition, psi_integral, psi_or_zero
from hodgeint.verify import suite_annihilation

F = Fraction

# independently known values (genus-0 closed form, one-point genus formula,
# and low-genus numbers recomputable by hand from the recursion); the genus-0
# and one-point rows are the recursion's base, which the DVV and string steps
# reproduce in the two *_step_gives_* tests below
ORACLE = {
    (0, (0, 0, 0)): F(1),
    (0, (1, 0, 0, 0)): F(1),
    (0, (1, 1, 0, 0, 0)): F(2),
    (0, (2, 0, 0, 0, 0)): F(1),
    (1, (1,)): F(1, 24),
    (1, (1, 1)): F(1, 24),
    (1, (2, 1, 0)): F(1, 12),
    (2, (4,)): F(1, 1152),
    (2, (3, 2)): F(29, 5760),
    (3, (7,)): F(1, 82944),
}


class TestOracleValues:
    @pytest.mark.parametrize("key,value", sorted(ORACLE.items()))
    def test_oracle(self, key, value):
        g, ks = key
        assert psi_integral(g, ks) == value

    def test_one_point_closed_form(self):
        # <tau_{3g-2}>_g = 1 / (24^g g!)
        for g in [1, 2, 3, 4, 5, 12]:
            assert psi_integral(g, [3 * g - 2]) == F(1, 24**g * factorial(g))

    def test_genus_zero_multinomial(self):
        # <tau_{k_1} ... tau_{k_n}>_0 = (n-3)! / prod k_i!
        for ks in [(2, 0, 0, 0, 0), (3, 0, 0, 0, 0, 0), (1, 1, 1, 0, 0, 0)]:
            n = len(ks)
            assert psi_integral(0, ks) == multinomial(n - 3, ks)

    def test_dvv_step_gives_the_one_point_closed_form(self):
        # one-point keys are base values, so drive the DVV step itself: it
        # reaches two-point keys of genus g - 1 and lower one-point keys
        store.reset()
        for g in range(2, 15):
            key = (3 * g - 2,)
            assert psi._top(g, key) == psi._rec.entry(g, key, F(1, 24**g * factorial(g)))

    def test_string_step_gives_the_genus_zero_multinomial(self, monkeypatch):
        # genus-0 keys are base values, so rebuild the recursion on the one
        # seed N_0(0, 0, 0) = 1: a genus-0 key on the grading ends in 0, so
        # the string step reaches every one
        monkeypatch.setattr(combinat, "REDUCTION_MEMOS", [])
        monkeypatch.setattr(combinat, "register_memo", lambda clear: None)
        seed = lambda g, key: 1 if (g, key) == (0, (0, 0, 0)) else None
        rec = combinat.reduction((2, 1), seed, None, psi._const)
        keys = [ks for n in range(3, 13) for ks in multisets(n, n - 3)]
        assert len(keys) == 97
        for ks in keys:
            assert rec.value(0, ks) == multinomial(len(ks) - 3, ks)


class TestStructure:
    def test_dimension_mismatch_is_zero(self):
        assert psi_integral(1, [2]) == 0
        assert psi_integral(2, [1, 1]) == 0
        assert psi_integral(0, [2, 0, 0]) == 0

    def test_unstable_raises(self):
        with pytest.raises(DomainError):
            psi_integral(0, [0])
        with pytest.raises(DomainError):
            psi_integral(0, [0, 0])
        with pytest.raises(DomainError):
            psi_integral(1, [])

    def test_negative_genus_raises(self):
        with pytest.raises(DomainError):
            psi_integral(-1, [0])

    def test_negative_exponent_raises(self):
        with pytest.raises(DomainError):
            psi_integral(1, [-1, 2])

    def test_too_many_points_raises(self):
        # string reduction recurses once per tau_0; 600 points used to end in
        # RecursionError
        with pytest.raises(DomainError):
            psi_integral(0, [597] + [0] * 599)
        with pytest.raises(DomainError):
            lambda_gm1(2, [602] + [0] * 599)
        n = MAX_POINTS
        assert psi_integral(0, [n - 3] + [0] * (n - 1)) == 1

    @pytest.mark.parametrize(
        "evaluate, g, ks, want",
        [
            # dilaton paths: <tau_1^m K>_g = (2g-2+|K|) ... (2g-3+|K|+m) <K>_g
            (psi_integral, 1, [1] * MAX_POINTS, F(factorial(MAX_POINTS - 1), 24)),
            (lambda_g_solver, 2, [2] + [1] * 199, lambda_g(2, [2]) * F(factorial(201), 2)),
            (lambda_g_gm1_solver, 2, [1] * MAX_POINTS, gg_const(2) * F(factorial(201), 2)),
            (lambda_gm1, 2, [3] + [1] * 199, c_constant(2) * F(factorial(201), 2)),
            (lambda_g_gm2_or_zero, 3, [3] + [1] * 199, F(41, 1451520) * F(factorial(203), 24)),
            # string paths (psi's is the last line of the test above): each
            # step lowers the one positive exponent
            (lambda_g_solver, 1, [199] + [0] * 199, F(1, 24)),
            (lambda_g_gm1_solver, 2, [200] + [0] * 199, gg_const(2)),
            (lambda_g_gm1, 2, [200] + [0] * 199, gg_const(2)),
            (lambda_gm1, 2, [202] + [0] * 199, c_constant(2)),
            (lambda_g_gm2_or_zero, 3, [202] + [0] * 199, F(41, 1451520)),
        ],
    )
    def test_string_and_dilaton_paths_finish_at_the_limit(self, evaluate, g, ks, want):
        # each step takes one frame, the recursion's own (the driver walks a
        # step's terms in its loop): 202-211 frames below the entry at the
        # limit from empty memos, measured on Python 3.11
        assert len(ks) == MAX_POINTS and sys.getrecursionlimit() <= 1000
        store.reset()
        assert evaluate(g, ks) == want

    def test_degree0_gw_dilaton_path_finishes_at_the_limit(self):
        assert sys.getrecursionlimit() <= 1000
        store.reset()
        value = degree0_gw(3, 3, [(0, 1)] * MAX_POINTS)
        assert value == degree0_gw(3, 3, []) * F(factorial(203), 6)

    def test_recursion_passes_the_limit_inside(self, monkeypatch):
        # the genus reduction of a top step adds an insertion, so a key at the
        # limit reaches keys above it; only the public entries count them
        monkeypatch.setattr(errors, "MAX_POINTS", 3)
        store.reset()
        assert psi_integral(2, [2, 2, 2]) == F(7, 240)
        with pytest.raises(LimitError):
            psi_integral(1, [1, 0, 0, 0])

    def test_sum_entries_enforce_the_limit(self):
        # these entries never counted insertions and recursed until
        # RecursionError
        with pytest.raises(LimitError):
            psi_or_zero(0, (1,) * 1500 + (0, 0, 0))
        with pytest.raises(LimitError):
            x_curve(1, 1, [1] * 1499 + [0])
        with pytest.raises(LimitError):
            x_surface(1, 1, [1] * 1500 + [0])
        with pytest.raises(LimitError):
            degree0_gw(3, 2, [(0, 1)] * 1500)
        with pytest.raises(LimitError):
            degree0_gw(3, 2, [(0, 1)] * (MAX_POINTS + 1))
        assert degree0_gw(3, 2, [(0, 1)] * 3) == degree0_gw(3, 2, []) * 2 * 3 * 4

    def test_psi_or_zero_silences_domain_errors(self):
        assert psi_or_zero(0, (0,)) == 0
        assert psi_or_zero(0, (-1, 0, 0, 0)) == 0
        assert psi_or_zero(1, (1,)) == F(1, 24)


class TestPointPartition:
    def test_low_genus_cap_keeps_higher_genera(self):
        # genera above the cap reach its hbar window through hbar^{-1} genus-0
        # factors: at (11, 1) the t_0^3 t_4 coefficient has <tau_4>_2 <tau_0^3>_0 / 3!
        for weight_cap in range(12):
            full = point_partition(weight_cap, weight_cap // 3 + 1)
            for genus_cap in range(4):
                low = point_partition(weight_cap, genus_cap)
                want = {k: c for k, c in full.terms.items() if low.caps.admits(*k)}
                assert low.terms == want, (weight_cap, genus_cap)

    def test_annihilation_at_low_genus_cap(self):
        checks = suite_annihilation(11, 1)
        assert all(ok for _, ok, _ in checks), checks

    @pytest.mark.parametrize(
        "caps,counts",
        [((), (14, 11, 6, 3)), ((11, 1), (27, 22, 12, 6))],
        ids=["defaults", "weight11-genus1"],
    )
    def test_annihilation_determined_counts(self, caps, counts):
        # a dropped or doubled monomial in the count moves these before it
        # flips a verdict
        details = [detail for _, _, detail in suite_annihilation(*caps)]
        assert details == [f"0 nonzero of {n} determined coefficients" for n in counts]

    def test_vacuous_annihilation_check_fails(self):
        # at (8, 0) the caps determine no coefficient that L_2 Z may carry
        checks = suite_annihilation(8, 0)
        assert [ok for _, ok, _ in checks] == [True, True, True, False]
        assert checks[0][2] == "0 nonzero of 2 determined coefficients"
        assert checks[3][2] == "0 nonzero of 0 determined coefficients"


@st.composite
def stable_inputs(draw):
    g = draw(st.integers(0, 3))
    n = draw(st.integers(max(1, 3 - 2 * g), 5))
    ks = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    return g, ks


class TestProperties:
    @given(stable_inputs())
    @settings(max_examples=80, deadline=None)
    def test_permutation_invariance(self, gk):
        g, ks = gk
        assert psi_integral(g, ks) == psi_integral(g, list(reversed(sorted(ks))))

    @given(stable_inputs())
    @settings(max_examples=60, deadline=None)
    def test_string_equation(self, gk):
        g, ks = gk
        lhs = psi_or_zero(g, tuple(ks) + (0,))
        rhs = sum(
            (
                psi_or_zero(g, tuple(ks[:i]) + (ks[i] - 1,) + tuple(ks[i + 1 :]))
                for i in range(len(ks))
                if ks[i] >= 1
            ),
            F(0),
        )
        assert lhs == rhs

    @given(stable_inputs())
    @settings(max_examples=60, deadline=None)
    def test_dilaton_equation(self, gk):
        g, ks = gk
        lhs = psi_or_zero(g, tuple(ks) + (1,))
        assert lhs == (2 * g - 2 + len(ks)) * psi_or_zero(g, tuple(ks))
