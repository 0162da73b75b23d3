"""Lambda-class ring reduction, obstruction Euler classes, degree-zero
descendent invariants."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgeint import mumford, store, verify
from hodgeint.combinat import multisets
from hodgeint.errors import DomainError
from hodgeint.hodge import lambda_cube, lambda_g, lambda_g_gm1
from hodgeint.mumford import (
    LambdaRingElem,
    degree0_gw,
    euler_class,
    reduce_lambda_monomial,
)

F = Fraction


class TestMumfordRelations:
    def test_relations_at_genus_three(self):
        # c_t c_-t = (1 + l1 t + l2 t^2 + l3 t^3)(1 - l1 t + l2 t^2 - l3 t^3)
        assert verify.mumford_relations(3) == [
            {(2,): 2, (1, 1): -1},
            {(3, 1): -2, (2, 2): 1},
            {(3, 3): -1},
        ]

    def test_relations_are_the_coefficients_of_c_t_c_minus_t(self):
        # each square rule the ring rewrites by is lambda_m^2 - (-1)^m rel_m,
        # with rel_m the relation as written from its definition
        for g in range(41):
            for m, rel in enumerate(verify.mumford_relations(g), start=1):
                rule = mumford._square_rule(g, m)
                got = {**{key: -c for c, key in rule}, (m, m): 1}
                assert got == {key: (-1) ** m * c for key, c in rel.items()}, (g, m)
                assert all(type(c) is int for c, _ in rule), (g, m)

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
    for j, rel in enumerate(verify.mumford_relations(g), start=1):
        if 2 * j > weight:
            break
        for mono in _keys(weight - 2 * j, g):
            row = _eliminate(_times({mono: F(1)}, rel), pivots)
            if row:
                lead = max(row)
                pivots[lead] = {k: v / row[lead] for k, v in row.items()}
    return pivots


def _assert_normal_forms_lie_in_the_ideal(g):
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


class TestNormalFormIndependently:
    @pytest.mark.parametrize("g", range(1, 6))
    def test_key_minus_normal_form_lies_in_the_ideal(self, g):
        _assert_normal_forms_lie_in_the_ideal(g)

    def test_tripled_square_rule_is_caught(self, monkeypatch):
        # a wrong rewrite rule must fail both checks that read the relations:
        # each of AC9's c_t c_-t = 1 lines and the normal forms against the
        # ideal
        rule = mumford._square_rule

        def tripled(g, m):
            out = list(rule(g, m))
            if out:
                out[0] = (3 * out[0][0], out[0][1])
            return tuple(out)

        store.reset()
        monkeypatch.setattr(mumford, "_square_rule", tripled)
        try:
            lines = [ok for name, ok, _ in verify.suite_mumford(6) if name.startswith("c_t")]
            assert lines == [False] * 5
            for g in range(2, 6):
                with pytest.raises(AssertionError):
                    _assert_normal_forms_lie_in_the_ideal(g)
        finally:
            store.reset()

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

    def test_high_dim_rejected(self):
        with pytest.raises(DomainError):
            euler_class(4, 2)

    def test_high_genus_needs_no_full_relation_list(self, monkeypatch):
        # an Euler class rewrites only lambda_g^2 and lambda_{g-1}^2, so it
        # must build no other square rule; the expected normal forms are the
        # closed forms of verify.suite_euler, written out square-free
        rule, built = mumford._square_rule, set()

        def spy(g, m):
            built.add(m)
            return rule(g, m)

        store.reset()
        monkeypatch.setattr(mumford, "_square_rule", spy)
        g = 60
        sgn = F((-1) ** g)
        want = {
            1: {(g - 1,): {(1,): -sgn}, (g,): {(): sgn}},
            2: {(g, g - 2): {(1, 1): F(1)}, (g, g - 1): {(1,): F(-1)}},
            # lambda_{g-1}^3 = 2 lambda_g lambda_{g-1} lambda_{g-2}
            3: {(g, g - 1, g - 2): {(1, 2): -sgn, (3,): sgn}},
        }
        for r, terms in want.items():
            assert euler_class(r, g) == LambdaRingElem.build(g, r, terms), r
        assert built == {g - 1, g}


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

    def test_threefold_string_step_counts_repeated_exponents(self):
        # <tau_2^2 tau_0^2> = 2 <tau_2 tau_1 tau_0> = 2 (<tau_1^2> + <tau_2 tau_0>)
        # = 2 (2g - 1 + 1) <tau_1> against the top lambda triple
        for g in (2, 3, 4):
            ins = [(0, 2), (0, 2), (0, 0), (0, 0)]
            assert degree0_gw(3, g, ins) == 4 * g * degree0_gw(3, g, [(0, 1)])

    def test_surface_values(self):
        # the class-1 insertion pairs with the -c1 l_g l_{g-1} term of the
        # Euler class, and int c_1 h = 3 on the dimension-2 target; at g = 2
        # that term is the top lambda triple l_2 l_1
        cases = [
            (3, [(1, 2)], F(-1, 40320)),
            (4, [(1, 3)], F(-1, 1075200)),
            (3, [(1, 1), (0, 2)], F(-1, 8064)),
        ]
        for g, ins, want in cases:
            ks = [k for _, k in ins]
            assert degree0_gw(2, g, ins) == want == -3 * lambda_g_gm1(g, ks)
        assert degree0_gw(2, 2, [(1, 1)]) == F(-1, 960)

    def test_dimension_mismatch_vanishes(self):
        assert degree0_gw(3, 2, [(3, 0)]) == 0
        assert degree0_gw(2, 2, [(0, 0)]) == 0

    def test_surface_lambda_gm2_value(self):
        # the c1^2 l_3 l_1 term of the Euler class with int c_1^2 = 9 on P^2:
        # 9 <tau_3 | l_3 l_1>_3, which raised while l_g l_{g-2} had no value
        # at g >= 3
        assert degree0_gw(2, 3, [(0, 3)]) == F(41, 161280) == 9 * F(41, 1451520)

    def test_total_for_every_class_degree_split(self):
        # every lambda monomial of the Euler classes for r <= 3 has a family,
        # so each split of at most r class degrees over up to three
        # insertions, at every level sum the moduli side can pair with,
        # returns a value; class-0 insertions on P^2 read only c1^2 l_g l_{g-2}
        surface_gm2 = 0
        for r, g, n in product(range(1, 4), range(2, 7), range(1, 4)):
            for d in range(n, 2 * g - 1 + n):
                for ks in multisets(n, d):
                    for powers in product(range(r + 1), repeat=n):
                        if sum(powers) <= r:
                            value = degree0_gw(r, g, list(zip(powers, ks)))
                            assert isinstance(value, Fraction)
                            if r == 2 and g > 2 and not any(powers):
                                surface_gm2 += value != 0
        assert surface_gm2 == 48

    def test_bad_insertions(self):
        with pytest.raises(DomainError):
            degree0_gw(1, 2, [(2, 0)])  # class power above the dimension
        with pytest.raises(DomainError):
            degree0_gw(1, 0, [(0, 0)])
