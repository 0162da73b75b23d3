"""Acceptance gate: one test per criterion, exact equality throughout.

Each test prints a single ``AC<n> ...: PASS`` line on success (visible with
``pytest -s``); the conftest terminal-summary hook additionally emits one
pass/fail line per criterion at the end of every run.
"""

import random
import time
from fractions import Fraction
from math import comb

from hodgeint import verify
from hodgeint.combinat import multinomial
from hodgeint.constraints import x_curve
from hodgeint.mumford import degree0_gw

F = Fraction


def _report(name: str) -> None:
    print(f"{name}: PASS")


def _assert_all_pass(checks) -> None:
    failed = [(name, detail) for name, ok, detail in checks if not ok]
    assert checks and not failed, failed


def test_ac01_one_point_constant_table():
    start = time.monotonic()
    checks = verify.suite_table(5)
    elapsed = time.monotonic() - start
    assert verify.GOLDEN_TABLE[5] == (F(73, 3503554560), F(21481, 367873228800))
    assert len(checks) == 10
    _assert_all_pass(checks)
    assert elapsed < 1.0, f"table took {elapsed:.3f}s"
    _report("AC1 one-point constant table g<=5")


def test_ac02_series_vs_bernoulli_closed_form():
    checks = verify.suite_bseq(10)
    assert len(checks) == 11
    _assert_all_pass(checks)
    _report("AC2 dual-route one-point constants g<=10")


def test_ac03_closed_forms_vs_recursions():
    start = time.monotonic()
    _assert_all_pass(verify.suite_closed_vs_recursion(3))
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
    assert len(checks) == 72
    _assert_all_pass(checks)
    _report("AC5 Virasoro commutators, point/P1/P2, k,l in [-1,3]")


def test_ac06_point_annihilation():
    _assert_all_pass(verify.suite_annihilation(weight_cap=8, max_genus=3))
    _report("AC6 point operators annihilate the partition function")


def test_ac07_one_point_relation():
    for g in range(2, 6):
        assert x_curve(2 * g - 2, g, ()) == 0, g
    _assert_all_pass(verify.suite_cg(max_genus=5))
    _report("AC7 one-point constant relation g<=5")


def test_ac08_euler_class_goldens():
    _assert_all_pass(verify.suite_euler(max_genus=5))
    _report("AC8 obstruction Euler classes, dims 1-3 and genus 1")


def test_ac09_mumford_relations():
    _assert_all_pass(verify.suite_mumford(max_genus=6))
    _report("AC9 lambda-class relations reduce to the identity, g<=6")


def test_ac10_degree_zero_gw_spot_values():
    assert degree0_gw(1, 2, [(1, 2)]) == F(7, 5760)
    assert degree0_gw(1, 2, [(0, 3)]) == F(-1, 240)
    _report("AC10 degree-zero descendent spot values on the curve target")


def test_ac11_string_dilaton_over_memoized_entries():
    # the suite seeds every table and fails a line that swept no entry
    _assert_all_pass(verify.suite_string_dilaton())
    _report("AC11 string/dilaton identities over all memoized integrals")
