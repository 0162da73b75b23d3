"""The split helper, the L_k block kernels and the integer bracket kernel
against brute references.

The references here are the loops the recursions were first written with:
every subset of the insertions as a bitmask, against every genus split, the
split weights as displayed, and the bracket as a product of ``Fraction``
linear factors.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgeint import combinat
from hodgeint.combinat import (
    LAMBDA_G_GRADING,
    LAMBDA_GG_GRADING,
    PSI_GRADING,
    bracket,
    graded_splits,
    linear_block,
    multisets,
    runs,
    split_block,
    split_weights,
)
from hodgeint.hodge import _gm1_or_zero, _xcurve_partial, lambda_g_or_zero
from hodgeint.psi import psi_integral, psi_or_zero

F = Fraction
HALF = F(1, 2)


@lru_cache(maxsize=None)
def _rising_product(x: Fraction, k: int) -> tuple:
    """Coefficients (low to high) of prod_{j=0}^{k} (t + x + j) over Fraction,
    k >= -1: the product up to k - 1 times the linear factor t + x + k."""
    if k < 0:
        return (F(1),)
    prev = _rising_product(x, k - 1)
    return tuple((x + k) * a + b for a, b in zip(prev + (F(0),), (F(0),) + prev))


def _br(x, k: int, i: int) -> Fraction:
    return _rising_product(F(x), k)[i]


def _bitmask_splits(items):
    n = len(items)
    for bits in range(1 << n):
        left = tuple(items[j] for j in range(n) if bits >> j & 1)
        right = tuple(items[j] for j in range(n) if not bits >> j & 1)
        yield left, right


def _desc(items):
    return tuple(sorted(items, reverse=True))


def _brute_top_reduction(g, ks):
    k = ks[0] - 1
    rest = ks[1:]
    total = F(0)
    for i, m in enumerate(rest):
        raised = rest[:i] + (m + k,) + rest[i + 1 :]
        total += _br(m + HALF, k, 0) * psi_or_zero(g, raised)
    for m in range(k):
        w = HALF * (-1) ** (m + 1) * _br(-m - HALF, k, 0)
        if g >= 1:
            total += w * psi_or_zero(g - 1, rest + (m, k - m - 1))
        for left, right in _bitmask_splits(rest):
            for g1 in range(g + 1):
                a = psi_or_zero(g1, (m,) + left)
                if a:
                    total += w * a * psi_or_zero(g - g1, (k - m - 1,) + right)
    return total / _br(1 + HALF, k, 0)


def _brute_xcurve_quadratic(g, k, derivs):
    total = F(0)
    for m in range(k - 1):
        w = HALF * (-1) ** (m + 1) * _br(-m - 1, k, 1)
        for left, right in _bitmask_splits(derivs):
            for g1 in range(g + 1):
                total += w * lambda_g_or_zero(g1, (m,) + left) * lambda_g_or_zero(
                    g - g1, (k - m - 2,) + right
                )
    return total


def test_psi_top_reduction_matches_bitmask_loop():
    count = 0
    for g in range(5):
        for n in range(1, 7):
            for ks in multisets(n, 3 * g - 3 + n):
                if ks[0] < 2:
                    continue
                want = _brute_top_reduction(g, ks)
                assert psi_integral(g, ks) == want, (g, ks)
                count += 1
    assert count > 100


def _brute_xcurve_partial(g, k, derivs):
    # every term of x_curve but the leading one, from the public values
    total = -_brute_xcurve_quadratic(g, k, derivs)
    total += _br(1, k, 1) * lambda_g_or_zero(g, (k,) + derivs)
    for i, j in enumerate(derivs):
        others = derivs[:i] + derivs[i + 1 :]
        total += _br(j, k, 0) * _gm1_or_zero(g, (k + j,) + others)
        total -= _br(j, k, 1) * lambda_g_or_zero(g, (k + j - 1,) + others)
    return total


def test_xcurve_quadratic_matches_bitmask_loop():
    count = 0
    for g in range(1, 6):
        for n in range(1, 5):
            # (k+1, derivs) is a lambda_{g-1} key: k + 1 + sum = 2g - 2 + n
            for top, *derivs in multisets(n, 2 * g - 2 + n):
                if top < 2:
                    continue
                derivs = tuple(derivs)
                want = _brute_xcurve_quadratic(g, top - 1, derivs)
                got = HALF * sum(
                    w * lambda_g_or_zero(g1, left) * lambda_g_or_zero(g - g1, right)
                    for w, left, right, g1 in split_block(
                        top - 1, 1, 0, derivs, g, LAMBDA_G_GRADING
                    )
                )
                assert got == want, (g, top, derivs)
                # the solve's integer sums give the same partial
                partial = _xcurve_partial(g, top - 1, derivs)[1]
                assert type(partial) is F
                assert partial == _brute_xcurve_partial(g, top - 1, derivs)
                count += 1
    assert count > 50


def test_split_weights_are_the_displayed_weights():
    for k in range(-1, 9):
        for i in range(k + 2):
            for b in (F(h, 2) for h in range(-7, 8)):
                want = {m: (-1) ** (m + 1) * _br(b - m - 1, k, i) for m in range(k - i)}
                got = dict(split_weights(k, i, b))
                assert got == {m: w for m, w in want.items() if w}, (k, i, b)


@given(
    items=st.lists(st.integers(0, 4), max_size=5),
    k=st.integers(0, 6),
    i=st.integers(0, 2),
    b=st.sampled_from([F(-1, 2), F(0), F(1, 2), F(1)]),
    genus=st.integers(0, 4),
    grading=st.sampled_from([PSI_GRADING, LAMBDA_G_GRADING, LAMBDA_GG_GRADING]),
    lhead=st.lists(st.integers(0, 3), max_size=1),
    rhead=st.lists(st.integers(0, 3), max_size=1),
)
@settings(max_examples=200, deadline=None)
def test_split_block_is_the_bitmask_block(items, k, i, b, genus, grading, lhead, rhead):
    slope, offset = grading
    want = Counter()
    for m in range(k - i):
        w = (-1) ** (m + 1) * _br(b - m - 1, k, i)
        for left, right in _bitmask_splits(items):
            left = (m, *lhead) + _desc(left)
            right = (k - m - i - 1, *rhead) + _desc(right)
            for g1 in range(genus + 1):
                if sum(left) - len(left) == slope * g1 + offset:
                    want[left, right, g1] += w
    got = Counter()
    for w, left, right, g1 in split_block(
        k, i, b, tuple(items), genus, grading, tuple(lhead), tuple(rhead)
    ):
        got[left, right, g1] += w
    assert {key: w for key, w in got.items() if w} == {
        key: w for key, w in want.items() if w
    }


def test_linear_block_terms():
    # dilaton term first, then one raised insertion per derivative position
    got = list(linear_block(2, 1, HALF, (3, 0), (5,)))
    assert got == [
        (-_br(HALF + 1, 2, 1), (2, 5, 3, 0)),
        (_br(HALF + 3, 2, 1), (4, 5, 0)),
        (_br(HALF, 2, 1), (1, 5, 3)),
    ]


def test_multisets_small_cases():
    assert multisets(3, 2) == [(2, 0, 0), (1, 1, 0)]
    assert multisets(0, 0) == [()]
    assert multisets(2, -1) == []
    for n in range(1, 6):
        for total in range(8):
            got = multisets(n, total)
            assert len(set(got)) == len(got)
            for ks in got:
                assert sum(ks) == total and list(ks) == sorted(ks, reverse=True)


_ITEMS = st.lists(st.integers(0, 4), max_size=7)
_GRADINGS = st.sampled_from([PSI_GRADING, LAMBDA_G_GRADING, LAMBDA_GG_GRADING])


@given(items=_ITEMS)
@settings(max_examples=150, deadline=None)
def test_unfiltered_splits_are_the_bitmask_splits(items):
    n = len(items)
    got = Counter()
    total_weight = 0
    for c, left, right, excess in graded_splits(items):
        assert excess == sum(left) - len(left)
        got[left, right] += c
        total_weight += c
    assert total_weight == 2**n
    want = Counter((_desc(left), _desc(right)) for left, right in _bitmask_splits(items))
    assert got == want


@given(
    items=_ITEMS,
    head=st.lists(st.integers(0, 6), min_size=1, max_size=2),
    genus=st.integers(0, 5),
    grading=_GRADINGS,
)
@settings(max_examples=200, deadline=None)
def test_graded_splits_keep_the_one_allowed_genus(items, head, genus, grading):
    # the excess of a split fixes the genus of a first factor head + left
    slope, offset = grading
    want = Counter()
    for left, right in _bitmask_splits(items):
        d, n = sum(head) + sum(left), len(head) + len(left)
        for g1 in range(genus + 1):
            if d - n == slope * g1 + offset:
                want[_desc(left), _desc(right), g1] += 1
    got = Counter()
    for c, left, right, excess in graded_splits(items):
        g1, r = divmod(sum(head) - len(head) - offset + excess, slope)
        if not r and 0 <= g1 <= genus:
            got[left, right, g1] += c
    assert got == want


def test_bracket_matches_fraction_product():
    # the half-integers the operators use, and every p/q with |p| <= 8 and
    # q <= 4 (1/3 among them); every i from one below to one above the range
    xs = {F(h, 2) for h in range(-60, 60)}
    xs |= {F(p, q) for p in range(-8, 9) for q in range(1, 5)}
    for x in sorted(xs):
        for k in range(-1, 31):
            coeffs = _rising_product(x, k)
            for i in range(-1, k + 3):
                want = coeffs[i] if 0 <= i <= k + 1 else 0
                assert bracket(x, k, i) == want, (x, k, i)


@given(st.lists(st.integers(0, 6), max_size=12))
@settings(max_examples=200, deadline=None)
def test_run_scans_match_a_counter(items):
    key = _desc(items)
    counts = Counter(key)
    values = sorted(counts, reverse=True)
    # a run ends where the entries >= its value end
    want = [(v, counts[v], sum(c for u, c in counts.items() if u >= v) - 1) for v in values]
    assert list(runs(key)) == want


@given(st.lists(st.integers(0, 6), max_size=12), st.integers(0, 5), st.booleans())
@settings(max_examples=100, deadline=None)
@pytest.mark.parametrize("a, b", [(0, 1), (1, 0), (2, 1)])
def test_string_and_dilaton_steps_match_a_counter(a, b, items, g, fractions):
    # the driver's steps on the two keys under test, over a base that gives
    # every other key a distinct integer (or Fraction), so a wrong lowered key
    # or weight changes the sum
    key = _desc(items)
    rest = tuple(v for v in key if v)
    tested, ids = {(g, key + (0,)), (g, rest + (1,))}, {}

    def base(h, ks):
        if (h, ks) in tested:
            return None
        i = ids.setdefault((h, ks), len(ids) + 1)
        return F(i, i + 1) if fractions else i

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(combinat, "REDUCTION_MEMOS", [])
        mp.setattr(combinat, "register_memo", lambda clear: None)
        rec = combinat.reduction((a, b), base, None)
    # string: a trailing 0 lowers each distinct positive entry once, weighted
    # by its multiplicity c and a v + b
    counts = Counter(key)
    lowered = [
        (counts[v] * (a * v + b), _desc((counts - Counter([v]) + Counter([v - 1])).elements()))
        for v in counts
        if v
    ]
    want, got = sum(c * base(g, low) for c, low in lowered), rec(g, key + (0,))
    assert got == want and type(got) is type(want)
    # dilaton: a trailing 1 drops it, times 2g - 2 + (the insertions left)
    assert rec(g, rest + (1,)) == (2 * g - 2 + len(rest)) * (a + b) * rec(g, rest)
