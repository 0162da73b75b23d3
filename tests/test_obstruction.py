"""Lambda-class ring reduction, obstruction Euler classes, degree-zero
descendent invariants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgeint.errors import DomainError, UnderdeterminedError
from hodgeint.hodge import lambda_cube, lambda_g, lambda_g_gm1
from hodgeint.mumford import (
    LambdaRingElem,
    degree0_gw,
    euler_class,
    euler_class_genus1,
    mumford_relations,
    reduce_lambda_monomial,
)

F = Fraction


class TestMumfordRelations:
    @pytest.mark.parametrize("g", range(1, 7))
    def test_relations_reduce_to_zero(self, g):
        for rel in mumford_relations(g):
            assert LambdaRingElem.build(g, 0, {k: {(): c} for k, c in rel.items()}).is_zero()

    def test_relations_at_genus_three(self):
        # c_t c_-t = (1 + l1 t + l2 t^2 + l3 t^3)(1 - l1 t + l2 t^2 - l3 t^3)
        assert mumford_relations(3) == (
            {(2,): 2, (1, 1): -1},
            {(3, 1): -2, (2, 2): 1},
            {(3, 3): -1},
        )

    @pytest.mark.parametrize("g", range(2, 7))
    def test_top_square_vanishes(self, g):
        assert reduce_lambda_monomial(g, (g, g)) == ()

    @pytest.mark.parametrize("g", range(2, 7))
    def test_subtop_square_rewrites(self, g):
        got = reduce_lambda_monomial(g, (g - 1, g - 1))
        want_key = (g, g - 2) if g > 2 else (g,)
        assert got == ((F(2), want_key),)

    @pytest.mark.parametrize("g", range(3, 6))
    def test_subtop_cube_rewrites(self, g):
        # lambda_{g-1}^3 = 2 lambda_g lambda_{g-1} lambda_{g-2}
        got = reduce_lambda_monomial(g, (g - 1, g - 1, g - 1))
        assert got == ((F(2), (g, g - 1, g - 2)),)

    def test_out_of_range_index_kills_product(self):
        assert reduce_lambda_monomial(2, (3,)) == ()
        assert reduce_lambda_monomial(2, (0,)) == ()


def _keys(weight, top):
    """Every lambda monomial of the given weight with indices <= top."""
    if weight == 0:
        yield ()
        return
    for i in range(min(weight, top), 0, -1):
        for rest in _keys(weight - i, i):
            yield (i,) + rest


def _times(a, b):
    """Product of two {lambda key: coeff} polynomials."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(sorted(ka + kb, reverse=True))
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _eliminate(row, pivots):
    """Reduce row by the echelon rows in pivots (keyed by their largest key)."""
    row = dict(row)
    while row:
        lead = max(row)
        if lead not in pivots:
            break
        c = row[lead]
        for k, v in pivots[lead].items():
            row[k] = row.get(k, 0) - c * v
            if row[k] == 0:
                del row[k]
    return row


def _ideal_echelon(g, weight):
    """Echelon basis over Fraction of the weight-graded piece of the ideal
    spanned by monomial * relation, with no rewriting involved."""
    pivots = {}
    for j, rel in enumerate(mumford_relations(g), start=1):
        if 2 * j > weight:
            break
        for mono in _keys(weight - 2 * j, g):
            row = _eliminate(_times({mono: F(1)}, rel), pivots)
            if row:
                lead = max(row)
                pivots[lead] = {k: v / row[lead] for k, v in row.items()}
    return pivots


class TestNormalFormIndependently:
    @pytest.mark.parametrize("g", range(1, 6))
    def test_key_minus_normal_form_lies_in_the_ideal(self, g):
        for weight in range(max(3 * g - 3, 1) + 1):
            pivots = _ideal_echelon(g, weight)
            keys = list(_keys(weight, g))
            square_free = [k for k in keys if len(set(k)) == len(k)]
            # the square-free monomials are a basis of the quotient, so the
            # normal form below is the only square-free representative
            assert len(keys) - len(pivots) == len(square_free)
            for key in keys:
                nf = reduce_lambda_monomial(g, key)
                assert all(len(set(k)) == len(k) for _, k in nf)
                diff = {key: F(1)}
                for c, k in nf:
                    diff[k] = diff.get(k, 0) - c
                assert not _eliminate({k: c for k, c in diff.items() if c}, pivots)

    @given(
        g=st.integers(1, 7),
        a=st.lists(st.integers(1, 7), max_size=4),
        b=st.lists(st.integers(1, 7), max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_normal_form_is_multiplicative(self, g, a, b):
        def nf(poly):
            out = {}
            for key, c in poly.items():
                for d, red in reduce_lambda_monomial(g, key):
                    out[red] = out.get(red, 0) + c * d
            return {k: c for k, c in out.items() if c}

        ab = tuple(sorted(a + b, reverse=True))
        a, b = tuple(sorted(a, reverse=True)), tuple(sorted(b, reverse=True))
        assert nf(_times(nf({a: F(1)}), nf({b: F(1)}))) == nf({ab: F(1)})


class TestEulerClasses:
    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_dim_one(self, g):
        sgn = F((-1) ** g)
        want = LambdaRingElem.build(
            g, 1, {(g,): {(): sgn}, (g - 1,): {(1,): -sgn}}
        )
        assert euler_class(1, g) == want

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_dim_two(self, g):
        gm2 = (g, g - 2) if g > 2 else (g,)
        want = LambdaRingElem.build(
            g, 2, {(g, g - 1): {(1,): F(-1)}, gm2: {(1, 1): F(1)}}
        )
        got = euler_class(2, g)
        assert got == want
        # c_2 never appears: only the first Chern class of the surface enters
        assert all((2,) not in dict(cp) for _, cp in got.terms)

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_dim_three(self, g):
        sgn = F((-1) ** g)
        want = LambdaRingElem.build(
            g,
            3,
            {(g - 1, g - 1, g - 1): {(3,): sgn / 2, (1, 2): -sgn / 2}},
        )
        assert euler_class(3, g) == want

    @pytest.mark.parametrize("roots", [(2,), (3, -1), (2, 5), (1, -2, 4), (3, 3, -7)])
    def test_monomial_table_at_integer_roots(self, roots):
        # m_mu(x) summed over the distinct exponent vectors, against the
        # table's polynomial in the elementary symmetric values of x
        from itertools import combinations, permutations
        from math import prod

        from hodgeint.mumford import _MONOMIAL_IN_CHERN

        r = len(roots)
        e = [sum(prod(c) for c in combinations(roots, i)) for i in range(4)]
        for mu, cpoly in _MONOMIAL_IN_CHERN.items():
            if len(mu) > r:
                continue
            exps = set(permutations(mu + (0,) * (r - len(mu))))
            direct = sum(prod(x**a for x, a in zip(roots, ex)) for ex in exps)
            via_c = sum(c * prod(e[i] for i in ck) for ck, c in cpoly.items())
            assert via_c == direct, mu

    def test_genus_one(self):
        for r in (1, 2, 3):
            got = euler_class_genus1(r)
            want = LambdaRingElem.build(
                1,
                r,
                {(): {(r,): F(1)}, (1,): {(() if r == 1 else (r - 1,)): F(-1)}},
            )
            assert got == want

    def test_high_dim_rejected(self):
        with pytest.raises(DomainError):
            euler_class(4, 2)


class TestDegreeZeroGW:
    def test_curve_target_spot_values(self):
        assert degree0_gw(1, 2, [(1, 2)]) == F(7, 5760)
        assert degree0_gw(1, 2, [(0, 3)]) == F(-1, 240)

    def test_curve_target_genus_one(self):
        # <tau_0(w)>_{1,0} = -int lambda_1 over the 1-pointed genus-1 space
        assert degree0_gw(1, 1, [(1, 0)]) == F(-1, 24)

    def test_derivation_chain_dim_one(self):
        # the spot values unfold through the Euler class (-1)^g(l_g - c1 l_{g-1})
        # with int c_1 = 2 on the dimension-1 target: the degree-1 insertion
        # pairs with the l_g term, the degree-0 one with the c_1 l_{g-1} term
        from hodgeint.hodge import b_constant, lambda_gm1

        assert degree0_gw(1, 2, [(1, 2)]) == lambda_g(2, (2,)) == b_constant(2)
        assert degree0_gw(1, 2, [(0, 3)]) == -2 * lambda_gm1(2, (3,))

    def test_threefold_dilaton_value(self):
        # <tau_1(1)>_{2,0} on the dimension-3 target:
        # (1/2)(int c_3 - int c_2 c_1)(2g - 2) lambda-cube = -1/144
        assert degree0_gw(3, 2, [(0, 1)]) == F(-1, 144)
        assert degree0_gw(3, 2, [(0, 1)]) == F(1, 2) * (4 - 24) * 2 * lambda_cube(2)

    def test_threefold_higher_genus(self):
        assert degree0_gw(3, 4, [(0, 1)]) == F(1, 2) * (4 - 24) * 6 * lambda_cube(4)

    def test_dimension_mismatch_vanishes(self):
        assert degree0_gw(3, 2, [(3, 0)]) == 0
        assert degree0_gw(2, 2, [(0, 0)]) == 0

    def test_underdetermined_raises(self):
        with pytest.raises(UnderdeterminedError):
            # hits <tau_3 | l_3 l_1> on the surface target, outside the
            # solvable families
            degree0_gw(2, 3, [(0, 3)])

    def test_bad_insertions(self):
        with pytest.raises(DomainError):
            degree0_gw(1, 2, [(2, 0)])  # class power above the dimension
        with pytest.raises(DomainError):
            degree0_gw(1, 0, [(0, 0)])
