"""Acceptance gate: one test per criterion, exact equality throughout.

Each test prints a single ``AC<n> ...: PASS`` line on success (visible with
``pytest -s``); the conftest terminal-summary hook additionally emits one
pass/fail line per criterion at the end of every run.
"""

import random
import time
from fractions import Fraction
from math import comb

from hodgeint import store, verify
from hodgeint.combinat import multinomial, multisets
from hodgeint.constraints import x_curve
from hodgeint.hodge import (
    hodge_table,
    lambda_g,
    lambda_g_gm1,
    lambda_g_gm1_solver,
    lambda_g_solver,
    lambda_gm1,
)
from hodgeint.mumford import degree0_gw
from hodgeint.psi import psi_integral

F = Fraction


def _report(name: str) -> None:
    print(f"{name}: PASS")


def test_ac01_one_point_constant_table():
    start = time.monotonic()
    rows = hodge_table(5)
    elapsed = time.monotonic() - start
    assert rows[4] == (5, F(73, 3503554560), F(21481, 367873228800))
    for g, b, c in rows:
        assert (b, c) == verify.GOLDEN_TABLE[g]
    assert elapsed < 1.0, f"table took {elapsed:.3f}s"
    _report("AC1 one-point constant table g<=5")


def test_ac02_series_vs_bernoulli_closed_form():
    from hodgeint.series1d import b_closed_form, b_sequence

    seq = b_sequence(10)
    for g in range(11):
        assert seq[g] == b_closed_form(g)
    _report("AC2 dual-route one-point constants g<=10")


def test_ac03_closed_forms_vs_recursions():
    start = time.monotonic()
    for g in range(0, 4):
        for n in range(3 if g == 0 else 1, 5):
            for ks in multisets(n, 2 * g - 3 + n):
                assert lambda_g(g, ks) == lambda_g_solver(g, ks), (g, ks)
    for g in range(1, 4):
        for n in range(1, 5):
            for ks in multisets(n, g - 2 + n):
                assert lambda_g_gm1(g, ks) == lambda_g_gm1_solver(g, ks), (g, ks)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"exhaustive comparison took {elapsed:.3f}s"
    _report("AC3 closed form vs recursion, g<=3 n<=4")


def test_ac04_multinomial_induction_identity():
    # the identity behind the induction step of the closed-form theorem:
    # with M = k_0 + ... + k_n + k + 1,
    #   multinomial(M; k_0..k_n, k+1)
    #     = C(k_0+k+1, k_0) multinomial(M-1; k_0+k, k_1..k_n)
    #       + sum_i C(k_i+k, k_i-1) multinomial(M-1; k_0..k_i+k..k_n)
    rng = random.Random(20260823)
    for _ in range(200):
        n = rng.randint(1, 6)
        k = rng.randint(0, 6)
        ks = [rng.randint(0, 6) for _ in range(n + 1)]
        total = sum(ks) + k + 1
        lhs = multinomial(total, ks + [k + 1])
        rhs = comb(ks[0] + k + 1, ks[0]) * multinomial(
            total - 1, [ks[0] + k] + ks[1:]
        )
        for i in range(1, n + 1):
            if ks[i] == 0:
                continue  # C(k_i+k, k_i-1) vanishes for k_i = 0
            rhs += comb(ks[i] + k, ks[i] - 1) * multinomial(
                total - 1, ks[:i] + [ks[i] + k] + ks[i + 1 :]
            )
        assert lhs == rhs, (ks, k)
    _report("AC4 multinomial induction identity, 200 randomized instances")


def test_ac05_virasoro_commutators():
    checks = verify.suite_commutators()
    failed = [name for name, ok, _ in checks if not ok]
    assert len(checks) == 72
    assert not failed, failed
    _report("AC5 Virasoro commutators, point/P1/P2, k,l in [-1,3]")


def test_ac06_point_annihilation():
    checks = verify.suite_annihilation(weight_cap=8, max_genus=3)
    failed = [(name, detail) for name, ok, detail in checks if not ok]
    assert not failed, failed
    _report("AC6 point operators annihilate the partition function")


def test_ac07_one_point_relation():
    for g in range(2, 6):
        assert x_curve(2 * g - 2, g, ()) == 0, g
    checks = verify.suite_cg(max_genus=5)
    failed = [name for name, ok, _ in checks if not ok]
    assert not failed, failed
    _report("AC7 one-point constant relation g<=5")


def test_ac08_euler_class_goldens():
    checks = verify.suite_euler(max_genus=5)
    failed = [(name, detail) for name, ok, detail in checks if not ok]
    assert not failed, failed
    _report("AC8 obstruction Euler classes, dims 1-3 and genus 1")


def test_ac09_mumford_relations():
    checks = verify.suite_mumford(max_genus=6)
    failed = [(name, detail) for name, ok, detail in checks if not ok]
    assert not failed, failed
    _report("AC9 lambda-class relations reduce to the identity, g<=6")


def test_ac10_degree_zero_gw_spot_values():
    assert degree0_gw(1, 2, [(1, 2)]) == F(7, 5760)
    assert degree0_gw(1, 2, [(0, 3)]) == F(-1, 240)
    _report("AC10 degree-zero descendent spot values on the curve target")


def test_ac11_string_dilaton_over_memoized_entries():
    # make sure every table has content before sweeping the identities
    psi_integral(3, [7])
    psi_integral(2, [3, 2])
    lambda_g(3, [2, 1, 1, 1])
    lambda_g_gm1(3, [3, 1, 1])
    lambda_gm1(3, [4, 1])
    assert all(store.tables()[tag] for tag in store.CACHED_TAGS)
    checks = verify.suite_string_dilaton()
    failed = [name for name, ok, _ in checks if not ok]
    assert not failed, failed
    _report("AC11 string/dilaton identities over all memoized integrals")
