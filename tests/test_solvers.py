"""The lambda_g and lambda_g lambda_{g-1} recursion solvers.

The solvers recurse on integers and build one Fraction at the end.  They are
compared here with a test-local Fraction copy of the two recursions in their
plain form (every value a rational, double-factorial ratios as written, base
constants from the series expansion and the Bernoulli numbers), and checked
to stay independent of the closed forms they are the oracle for.
"""

from fractions import Fraction
from functools import lru_cache
from hashlib import sha256
from inspect import getclosurevars
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgeint import combinat, hodge, mumford, psi, store
from hodgeint.combinat import grading, multisets
from hodgeint.errors import DomainError
from hodgeint.hodge import double_factorial
from hodgeint.series1d import b_sequence, bernoulli

F = Fraction
B = b_sequence(12)


def _canon(ks):
    return tuple(sorted(ks, reverse=True))


def _lowered(ks, i):
    out = list(ks)
    out[i] -= 1
    return _canon(out)


def _gg_const(g):
    # |B_2g| / (2^{2g-1} (2g-1)!! 2g)
    return abs(bernoulli(2 * g)) / (4**g * double_factorial(2 * g - 1) * g)


@lru_cache(maxsize=None)
def ref_lambda_g(g, key):
    n = len(key)
    if sum(key) != 2 * g - 3 + n:
        return F(0)
    if g == 0 and key == (0, 0, 0):
        return F(1)
    if g > 0 and n == 1:
        return B[g]
    if key[-1] == 0:
        rest = key[:-1]
        lowered = [_lowered(rest, i) for i in range(len(rest)) if rest[i]]
        return sum((ref_lambda_g(g, low) for low in lowered), F(0))
    k, k0, rest = key[0] - 1, key[1], key[2:]
    val = comb(k0 + k + 1, k0) * ref_lambda_g(g, _canon((k0 + k,) + rest))
    for i, ki in enumerate(rest):
        others = rest[:i] + rest[i + 1 :]
        val += comb(ki + k, ki - 1) * ref_lambda_g(g, _canon((k0, ki + k) + others))
    return val


@lru_cache(maxsize=None)
def ref_lambda_gg(g, key):
    n = len(key)
    if sum(key) != g - 2 + n:
        return F(0)
    if n == 1:
        return _gg_const(g)
    if key[-1] == 0:
        rest = key[:-1]
        lowered = [_lowered(rest, i) for i in range(len(rest)) if rest[i]]
        return sum((ref_lambda_gg(g, low) for low in lowered), F(0))
    if key[0] == 1:
        return (2 * g - 3 + n) * ref_lambda_gg(g, key[1:])
    df = double_factorial
    k, k0, rest = key[0] - 1, key[1], key[2:]
    val = F(df(2 * k + 2 * k0 + 1), df(2 * k + 1) * df(2 * k0 - 1)) * ref_lambda_gg(
        g, _canon((k0 + k,) + rest)
    )
    for i, ki in enumerate(rest):
        others = rest[:i] + rest[i + 1 :]
        weight = F(df(2 * k + 2 * ki - 1), df(2 * k + 1) * df(2 * ki - 3))
        val += weight * ref_lambda_gg(g, _canon((k0, ki + k) + others))
    return val


def lambda_g_keys(gmin, gmax, nmax):
    return [
        (g, ks)
        for g in range(gmin, gmax + 1)
        for n in range(3 if g == 0 else 1, nmax + 1)
        for ks in multisets(n, 2 * g - 3 + n)
    ]


def lambda_gg_keys(gmin, gmax, nmax):
    return [
        (g, ks)
        for g in range(gmin, gmax + 1)
        for n in range(1, nmax + 1)
        for ks in multisets(n, g - 2 + n)
    ]


def test_independent_of_the_closed_forms(monkeypatch):
    store.reset()
    # each solver row holds its solver's reduction, not a closed form's
    for solver, rec in ((hodge.lambda_g_solver, hodge._lg_rec),
                        (hodge.lambda_g_gm1_solver, hodge._gg_rec)):
        assert getclosurevars(solver).nonlocals["value"] is rec.value
    closed_memos = (hodge._lambda_g.memo, hodge._gg_closed.memo)

    def forbidden(*args):
        raise AssertionError("a solver consulted the closed form")

    # the closed forms' kernels, from the integer ones up to the public entries
    closed = ("multinomial", "_lg_value", "_gg_closed")
    closed += ("_lambda_g", "lambda_g", "lambda_g_gm1")
    for name in closed:
        monkeypatch.setattr(hodge, name, forbidden)
    for g, ks in lambda_g_keys(0, 6, 8):
        assert hodge.lambda_g_solver(g, ks) == ref_lambda_g(g, ks)
    for g, ks in lambda_gg_keys(1, 6, 8):
        assert hodge.lambda_g_gm1_solver(g, ks) == ref_lambda_gg(g, ks)
    assert not any(store.tables().values())
    assert not any(closed_memos)
    store.reset()


def test_lambda_g_solver_on_the_sweep_grid():
    for g, ks in lambda_g_keys(0, 9, 10):
        value = hodge.lambda_g_solver(g, ks)
        assert type(value) is Fraction and value == ref_lambda_g(g, ks), (g, ks)


def test_lambda_g_gm1_solver_on_the_sweep_grid():
    for g, ks in lambda_gg_keys(1, 9, 10):
        value = hodge.lambda_g_gm1_solver(g, ks)
        assert type(value) is Fraction and value == ref_lambda_gg(g, ks), (g, ks)


@pytest.mark.parametrize(
    "rec, w",
    [
        (psi._rec, lambda k: double_factorial(2 * k + 1)),
        (hodge._lg_rec, factorial),
        (hodge._gg_rec, lambda k: double_factorial(2 * k - 1)),
        (hodge._gg_closed, lambda k: double_factorial(2 * k - 1)),
    ],
    ids=["psi", "lambda_g_solver", "lambda_g_gm1_solver", "lambda_g_gm1"],
)
def test_scale_is_the_product_of_the_weights(rec, w):
    # rec.scale is prod w(k_i) for the weight (a, b) the reduction takes, and
    # the same after a reset empties its memo of w
    assert rec.scale(()) == 1
    for _ in range(2):
        assert [rec.scale((k,)) for k in range(41)] == [w(k) for k in range(41)]
        assert rec.scale((7, 3, 3, 0)) == w(7) * w(3) ** 2 * w(0)
        store.reset()


def _graded_keys(offsets, gmin, nmin):
    # every stable key on the grading of the lambda offsets with g <= 5 and n <= 5
    slope, offset = grading(offsets)
    return [
        (g, ks)
        for g in range(gmin, 6)
        for n in range(max(nmin, 3 - 2 * g), 6)
        for ks in multisets(n, slope * g + offset + n)
    ]


@pytest.mark.parametrize(
    "rec, offsets, gmin, nmin",
    [
        (psi._rec, (), 0, 0),
        (hodge._lg_rec, (0,), 0, 1),
        (hodge._gg_rec, (0, 1), 1, 1),
        (hodge._gg_closed, (0, 1), 1, 1),
    ],
    ids=["psi", "lambda_g_solver", "lambda_g_gm1_solver", "lambda_g_gm1"],
)
def test_the_value_rule_round_trips(rec, offsets, gmin, nmin):
    # rec.entry inverts rec.value on the integer entries, and a value off the
    # scale has no entry
    keys = _graded_keys(offsets, gmin, nmin)
    assert len(keys) > 20
    for g, key in keys:
        value = rec.value(g, key)
        assert type(value) is Fraction
        entry = rec.entry(g, key, value)
        assert type(entry) is int and entry == rec(g, key), (g, key)
        assert rec.entry(g, key, value + F(1, 2**60)) is None, (g, key)


@pytest.mark.parametrize(
    "name", ["hodge._lambda_g", "hodge._gm1", "hodge._gm2", "mumford._top_triple"]
)
def test_without_a_constant_the_entries_are_the_values(name):
    module, attr = name.split(".")
    rec = getattr({"hodge": hodge, "mumford": mumford}[module], attr)
    assert rec.value is rec
    value = F(2, 7)
    assert rec.entry(3, (4, 2), value) is value


def test_a_wrong_weight_rule_disagrees_with_the_closed_form(monkeypatch):
    # the lambda_g solver's base and y-step under weight (1, 1) instead of
    # (1, 0): the grid of the independence test tells it apart from lambda_g
    monkeypatch.setattr(combinat, "REDUCTION_MEMOS", [])
    monkeypatch.setattr(combinat, "register_memo", lambda clear: None)

    def base(g, key):
        return factorial(2 * g - 2) if len(key) == 1 else 1 if key == (0, 0, 0) else None

    wrong = combinat.reduction((1, 1), base, lambda g, key: hodge._y_top(1, wrong, g, key))
    keys = lambda_g_keys(0, 6, 8)
    differ = sum(
        F(wrong(g, ks) * hodge.b_constant(g), wrong.scale(ks)) != hodge.lambda_g(g, ks)
        for g, ks in keys
    )
    assert differ > len(keys) // 2, (differ, len(keys))


def test_off_the_grading_is_zero():
    assert hodge.lambda_g_solver(3, (3, 3)) == 0
    assert hodge.lambda_g_gm1_solver(3, (3, 2)) == 0


@st.composite
def graded_keys(draw, slope, offset, gmin):
    """(g, key) with key summing to slope * g + offset + n, unsorted."""
    g = draw(st.integers(gmin, 12))
    n = draw(st.integers(3 if g == 0 else 1, 7))
    total = slope * g + offset + n  # >= 0 on the stable range
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
    return g, [b - a for a, b in zip([0] + cuts, cuts + [total])]


@given(graded_keys(*grading((0,)), 0))
@settings(max_examples=40, deadline=None)
def test_lambda_g_solver_random_keys(gk):
    g, ks = gk
    assert hodge.lambda_g_solver(g, ks) == ref_lambda_g(g, _canon(ks))


@given(graded_keys(*grading((0, 1)), 1))
@settings(max_examples=40, deadline=None)
def test_lambda_g_gm1_solver_random_keys(gk):
    g, ks = gk
    assert hodge.lambda_g_gm1_solver(g, ks) == ref_lambda_gg(g, _canon(ks))


@pytest.mark.parametrize(
    "solver, g, ks",
    [(hodge.lambda_g_solver, 0, (0, 0)), (hodge.lambda_g_gm1_solver, 0, (1,))],
)
def test_domain_errors(solver, g, ks):
    with pytest.raises(DomainError):
        solver(g, ks)


def test_a_fixed_sweep_does_the_same_work():
    # the keys and entries each recursion memoizes on a fixed sweep from empty
    # memos, pinned as (size, hash of the sorted items): a change to the
    # driver's steps or to a top step that reaches other keys, or memoizes
    # other numbers, shows here even where the values it returns agree
    store.reset()
    for g, ks in lambda_g_keys(0, 5, 6):
        hodge.lambda_g_solver(g, ks)
    for g, ks in lambda_gg_keys(1, 5, 6):
        hodge.lambda_g_gm1_solver(g, ks)
    for g in range(1, 5):
        for n in range(1, 7):
            for ks in multisets(n, 2 * g - 2 + n):
                hodge.lambda_gm1(g, ks)
        for n in range(1, 5):
            for ks in multisets(n, g - 1 + n):
                hodge.lambda_g_gm2_or_zero(g, ks)
    psi.psi_integral(4, (3, 3, 3, 2, 2, 2))
    memos = (psi._rec, hodge._lg_rec, hodge._gg_rec, hodge._gm1, hodge._gm2)
    work = [
        (len(rec.memo), sha256(repr(sorted(rec.memo.items())).encode()).hexdigest()[:16])
        for rec in memos
    ]
    assert work == [
        (89, "9c6cf6ae83eab9a8"),
        (401, "aefe309437c65e77"),
        (202, "06934531d0e460d2"),
        (302, "0a22f9683f337b16"),
        (64, "3289ff436f84f63d"),
    ]
    store.reset()
