"""Self-verification suites.

Each suite returns a list of ``(check name, passed, detail)`` triples; the CLI
and the acceptance tests share these implementations.  The suites mirror the
package's correctness arguments: golden constants, dual-route computations
(closed form against recursion, series against Bernoulli numbers), operator
algebra identities, annihilation of the point partition function, and ring
identities among lambda classes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from . import store
from .combinat import multisets, stirling_s2
from .hodge import (
    b_constant,
    c_constant,
    hodge_table,
    lambda_g,
    lambda_g_gm1,
    lambda_g_gm1_solver,
    lambda_g_solver,
    lambda_gm1,
)
from .mumford import (
    LambdaRingElem,
    euler_class,
    euler_class_genus1,
    mumford_relations,
    reduce_lambda_monomial,
)
from .operators import (
    apply_operator,
    commutator,
    general_operator,
    p1_data,
    p2_data,
    point_data,
    point_operator,
)
from .phase_space import monomial_degree, monomial_weight
from .psi import point_partition, psi_integral
from .series1d import b_closed_form, b_sequence

__all__ = ["SUITES", "run_suite", "GOLDEN_TABLE"]

Check = Tuple[str, bool, str]

# the published table of one-point constants (b_g, c_g), g = 1..5
GOLDEN_TABLE: Dict[int, Tuple[Fraction, Fraction]] = {
    1: (Fraction(1, 24), Fraction(1, 24)),
    2: (Fraction(7, 5760), Fraction(1, 480)),
    3: (Fraction(31, 967680), Fraction(41, 580608)),
    4: (Fraction(127, 154828800), Fraction(13, 6220800)),
    5: (Fraction(73, 3503554560), Fraction(21481, 367873228800)),
}


def suite_table(max_genus: int = 5) -> List[Check]:
    checks: List[Check] = []
    rows = hodge_table(min(max_genus, 5))
    for g, b, c in rows:
        bg, cg = GOLDEN_TABLE[g]
        checks.append((f"b_{g}", b == bg, f"{b} vs {bg}"))
        checks.append((f"c_{g}", c == cg, f"{c} vs {cg}"))
    return checks


def suite_bseq(max_genus: int = 10) -> List[Check]:
    seq = b_sequence(max_genus)
    return [
        (
            f"b_{g} series vs Bernoulli",
            seq[g] == b_closed_form(g),
            f"{seq[g]} vs {b_closed_form(g)}",
        )
        for g in range(max_genus + 1)
    ]


def suite_closed_vs_recursion(max_genus: int = 3, max_points: int = 4) -> List[Check]:
    checks: List[Check] = []
    for g in range(0, max_genus + 1):
        for n in range(3 if g == 0 else 1, max_points + 1):
            for ks in multisets(n, 2 * g - 3 + n):
                a, b = lambda_g(g, ks), lambda_g_solver(g, ks)
                checks.append(
                    (f"lambda_g g={g} ks={ks}", a == b, f"{a} vs {b}")
                )
    for g in range(1, max_genus + 1):
        for n in range(1, max_points + 1):
            for ks in multisets(n, g - 2 + n):
                a, b = lambda_g_gm1(g, ks), lambda_g_gm1_solver(g, ks)
                checks.append(
                    (f"lambda_g_gm1 g={g} ks={ks}", a == b, f"{a} vs {b}")
                )
    return checks


_COMMUTATOR_TARGETS = {
    "point": point_data,
    "P1": p1_data,
    "P2": p2_data,
}


def suite_commutators(level_cap: int = 6, slack: int = 10) -> List[Check]:
    """[L_k, L_l] = (k - l) L_{k+l} within the level window, per target."""
    checks: List[Check] = []
    big = level_cap + slack
    for name, maker in _COMMUTATOR_TARGETS.items():
        data = maker()
        ops = {k: general_operator(k, data, big) for k in range(-1, 7)}
        for k in range(-1, 4):
            for l in range(-1, 4):
                if k + l < -1:
                    continue
                lhs = commutator(ops[k], ops[l]).level_filter(level_cap)
                rhs = ops[k + l].scale(Fraction(k - l)).level_filter(level_cap)
                diff = lhs - rhs
                checks.append(
                    (
                        f"{name} [L_{k}, L_{l}] = {k - l} L_{k + l}",
                        diff.is_zero(),
                        f"{len(diff.terms)} residual terms",
                    )
                )
    return checks


def _point_grading_vanishes(h: int, mono) -> bool:
    """Coefficients of the point partition function vanish unless the
    descendent weight equals 3 hbar-power + 2 (number of insertions)."""
    return monomial_weight(mono) != 3 * h + 2 * monomial_degree(mono)


def suite_annihilation(weight_cap: int = 8, genus_cap: int = 3) -> List[Check]:
    checks: List[Check] = []
    z = point_partition(weight_cap, genus_cap)
    for k in range(-1, 3):
        op = point_operator(k, weight_cap)
        result, tainted = apply_operator(
            op, z, source_vanishes=_point_grading_vanishes, basis_size=1
        )
        bad = [
            key
            for key in result.terms
            if key not in tainted and result.terms[key] != 0
        ]
        determined = sum(
            1 for key in result.terms if key not in tainted
        )
        checks.append(
            (
                f"point L_{k} annihilates Z (weight<={weight_cap}, genus<={genus_cap})",
                not bad,
                f"{len(bad)} nonzero determined coefficients",
            )
        )
    return checks


def suite_mumford(max_genus: int = 6) -> List[Check]:
    checks: List[Check] = []
    for g in range(1, max_genus + 1):
        ok = True
        for rel in mumford_relations(g):
            elem = LambdaRingElem.build(g, 0, {k: {(): c} for k, c in rel.items()})
            if not elem.is_zero():
                ok = False
        checks.append((f"c_t c_-t = 1 at genus {g}", ok, ""))
    for g in range(2, max_genus + 1):
        sq = reduce_lambda_monomial(g, (g, g))
        checks.append((f"lambda_{g}^2 = 0", sq == (), str(sq)))
        got = reduce_lambda_monomial(g, (g - 1, g - 1))
        want = (
            ((Fraction(2), (g, g - 2) if g > 2 else (g,))),
        )
        checks.append(
            (
                f"lambda_{g - 1}^2 = 2 lambda_{g} lambda_{g - 2}",
                got == want,
                f"{got} vs {want}",
            )
        )
    return checks


def suite_euler(max_genus: int = 5) -> List[Check]:
    checks: List[Check] = []
    for g in range(2, max_genus + 1):
        sgn = Fraction((-1) ** g)
        want = LambdaRingElem.build(
            g, 1, {(g,): {(): sgn}, (g - 1,): {(1,): -sgn}}
        )
        got = euler_class(1, g)
        checks.append((f"dim 1 Euler class, g={g}", got == want, got.pretty()))

        gm2: Tuple[int, ...] = (g, g - 2) if g > 2 else (g,)
        want = LambdaRingElem.build(
            g,
            2,
            {(g, g - 1): {(1,): Fraction(-1)}, gm2: {(1, 1): Fraction(1)}},
        )
        got = euler_class(2, g)
        checks.append((f"dim 2 Euler class, g={g}", got == want, got.pretty()))
        no_c2 = all((2,) not in dict(cp) for _, cp in got.terms)
        checks.append((f"dim 2 Euler class has no c2, g={g}", no_c2, got.pretty()))

        want = LambdaRingElem.build(
            g,
            3,
            {
                (g - 1, g - 1, g - 1): {
                    (3,): sgn / 2,
                    (2, 1): -sgn / 2,
                }
            },
        )
        got = euler_class(3, g)
        checks.append((f"dim 3 Euler class, g={g}", got == want, got.pretty()))
    for r in (1, 2, 3):
        want = LambdaRingElem.build(
            1,
            r,
            {
                (): {(r,): Fraction(1)},
                (1,): {(() if r == 1 else (r - 1,)): Fraction(-1)},
            },
        )
        got = euler_class_genus1(r)
        checks.append((f"genus 1 Euler class, r={r}", got == want, got.pretty()))
    return checks


def suite_cg(max_genus: int = 5) -> List[Check]:
    """The one-point lambda_{g-1} relation: (2g-1)! c_g equals the harmonic
    multiple of b_g minus the quadratic b-sum (an unsigned Stirling number of
    the first kind appears as the linear coefficient)."""
    from math import factorial

    checks: List[Check] = []
    for g in range(1, max_genus + 1):
        lhs = factorial(2 * g - 1) * c_constant(g)
        rhs = stirling_s2(2 * g) * b_constant(g)
        for g1 in range(1, g):
            g2 = g - g1
            rhs -= (
                Fraction(1, 2)
                * factorial(2 * g1 - 1)
                * factorial(2 * g2 - 1)
                * b_constant(g1)
                * b_constant(g2)
            )
        checks.append((f"one-point relation at g={g}", lhs == rhs, f"{lhs} vs {rhs}"))
    return checks


_TAG_EVAL: Dict[str, Callable[[int, Tuple[int, ...]], Fraction]] = {
    store.TAG_PSI: psi_integral,
    store.TAG_LAMBDA_G: lambda_g,
    store.TAG_LAMBDA_G_GM1: lambda_g_gm1,
    store.TAG_LAMBDA_GM1: lambda_gm1,
}


def suite_string_dilaton() -> List[Check]:
    """String and dilaton identities over every memoized integral."""
    checks: List[Check] = []
    for tag, table in store.tables().items():
        fn = _TAG_EVAL[tag]
        string_ok = dilaton_ok = True
        count = 0
        for (g, ks) in list(table.keys()):
            n = len(ks)
            count += 1
            lowered = sum(
                (fn(g, ks[:i] + (ks[i] - 1,) + ks[i + 1 :]) for i in range(n) if ks[i] >= 1),
                Fraction(0),
            )
            if fn(g, ks + (0,)) != lowered:
                string_ok = False
            if fn(g, ks + (1,)) != (2 * g - 2 + n) * fn(g, ks):
                dilaton_ok = False
        checks.append((f"string identity over {tag} ({count} entries)", string_ok, ""))
        checks.append((f"dilaton identity over {tag} ({count} entries)", dilaton_ok, ""))
    return checks


SUITES: Dict[str, Callable[..., List[Check]]] = {
    "table": suite_table,
    "bseq": suite_bseq,
    "closed-vs-recursion": suite_closed_vs_recursion,
    "commutators": suite_commutators,
    "annihilation": suite_annihilation,
    "mumford": suite_mumford,
    "euler": suite_euler,
    "cg": suite_cg,
    "string-dilaton": suite_string_dilaton,
}


def run_suite(name: str, **kwargs) -> List[Check]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)
