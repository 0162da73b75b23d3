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
from typing import Callable, Dict, Iterator, List, Tuple

from .combinat import grading, multisets
from .hodge import (
    FAMILIES,
    b_constant,
    c_constant,
    hodge_table,
    lambda_g_gm1_solver,
    lambda_g_solver,
)
from .mumford import (
    LambdaRingElem,
    euler_class,
    euler_class_genus1,
    reduce_lambda_monomial,
)
from .operators import (
    DifferentialOperator,
    apply_operator,
    commutator,
    general_operator,
    p1_data,
    p2_data,
    point_data,
    point_operator,
)
from .phase_space import monomial_degree, monomial_weight, monomials
from .psi import point_partition
from .series1d import b_closed_form, b_sequence

__all__ = ["SUITES", "run_suite", "GOLDEN_TABLE", "commutator_residuals",
           "mumford_relations"]

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
    rows = hodge_table(min(max_genus, 5)) if max_genus > 0 else []  # starts at g = 1
    for g, b, c in rows:
        bg, cg = GOLDEN_TABLE[g]
        checks.append((f"b_{g}", b == bg, f"{b} vs {bg}"))
        checks.append((f"c_{g}", c == cg, f"{c} vs {cg}"))
    return checks


def suite_bseq(max_genus: int = 10) -> List[Check]:
    checks: List[Check] = []
    for g, s in enumerate(b_sequence(max_genus)):
        c = b_closed_form(g)
        checks.append((f"b_{g} series vs Bernoulli", s == c, f"{s} vs {c}"))
    return checks


_CLOSED_FORM_MAX_POINTS = 4  # insertions per key of the closed-form suite


def suite_closed_vs_recursion(max_genus: int = 3) -> List[Check]:
    checks: List[Check] = []
    for row, solver in ((FAMILIES["lambda_g"], lambda_g_solver),
                        (FAMILIES["lambda_g_gm1"], lambda_g_gm1_solver)):
        slope, offset = grading(row.offsets)
        for g in range(row.gmin, max_genus + 1):
            for n in range(max(row.nmin, 3 - 2 * g), _CLOSED_FORM_MAX_POINTS + 1):
                for ks in multisets(n, slope * g + offset + n):
                    a, b = row.strict(g, ks), solver(g, ks)
                    checks.append((f"{row.name} g={g} ks={ks}", a == b, f"{a} vs {b}"))
    return checks


def commutator_residuals(
    data, top: int, level_cap: int, build_cap: int
) -> Iterator[Tuple[int, int, DifferentialOperator]]:
    """(k, l, [L_k, L_l] - (k - l) L_{k+l}) for k, l in -1..top with
    k + l >= -1, both sides filtered to level_cap, the operators built at
    build_cap so that the filtered commutator misses no contraction."""
    ops = {k: general_operator(k, data, build_cap) for k in range(-1, 2 * top + 1)}
    for k in range(-1, top + 1):
        for l in range(-1, top + 1):
            if k + l >= -1:
                lhs = commutator(ops[k], ops[l]).level_filter(level_cap)
                rhs = ops[k + l].scale(Fraction(k - l)).level_filter(level_cap)
                yield k, l, lhs - rhs


# the commutator suite's targets; its k and l run over -1..3, within level 6
# of operators built at level 16
_COMMUTATOR_TARGETS = (point_data, p1_data, p2_data)


def suite_commutators() -> List[Check]:
    """[L_k, L_l] = (k - l) L_{k+l} within the level window, per target."""
    return [
        (
            f"{data.name} [L_{k}, L_{l}] = {k - l} L_{k + l}",
            diff.is_zero(),
            f"{len(diff.terms)} residual terms",
        )
        for data in (maker() for maker in _COMMUTATOR_TARGETS)
        for k, l, diff in commutator_residuals(data, 3, 6, 16)
    ]


def _point_grade(h: int, mono) -> int:
    """3 hbar-power + 2 (number of insertions) - descendent weight: 0 on
    every nonzero coefficient of the point partition function, and k on
    those of L_k applied to it (L_k lowers the weight by k)."""
    return 3 * h + 2 * monomial_degree(mono) - monomial_weight(mono)


def suite_annihilation(weight_cap: int = 8, max_genus: int = 3) -> List[Check]:
    checks: List[Check] = []
    z = point_partition(weight_cap, max_genus)
    window = range(z.caps.hbar_min, z.caps.hbar_max + 1)
    keys = [(h, m) for layer in monomials(weight_cap, 1) for m in layer for h in window]
    for k in range(-1, 3):
        op = point_operator(k, weight_cap)
        result, tainted = apply_operator(
            op, z, source_vanishes=lambda h, mono: _point_grade(h, mono) != 0
        )
        bad = [key for key in result.terms if key not in tainted]
        # the coefficients the caps determine and the grading lets be
        # nonzero; a check that tested none of them passes vacuously, so it
        # fails
        determined = sum(key not in tainted and _point_grade(*key) == k for key in keys)
        name = f"point L_{k} annihilates Z (weight<={weight_cap}, genus<={max_genus})"
        detail = f"{len(bad)} nonzero of {determined} determined coefficients"
        checks.append((name, determined > 0 and not bad, detail))
    return checks


def mumford_relations(g: int) -> List[Dict[Tuple[int, ...], int]]:
    """The t^{2m}-coefficients sum_{i+j=2m} (-1)^j lambda_i lambda_j of
    c_t(E) c_{-t}(E) - 1, m = 1..g, as {lambda key: coefficient}: written
    from the definition, not from the square rules the ring rewrites by."""
    rels = []
    for m in range(1, g + 1):
        rel: Dict[Tuple[int, ...], int] = {}
        for i in range(max(0, 2 * m - g), min(2 * m, g) + 1):
            j = 2 * m - i
            key = tuple(sorted((x for x in (i, j) if x), reverse=True))
            rel[key] = rel.get(key, 0) + (-1) ** j
        rels.append(rel)
    return rels


def suite_mumford(max_genus: int = 6) -> List[Check]:
    # from genus 2: at genus 1 the one relation lambda_1^2 = 0 dies at the
    # degree cut before any square rule is read, so its line tests nothing
    checks: List[Check] = []
    for g in range(2, max_genus + 1):
        ok = all(
            LambdaRingElem.build(g, 0, {k: {(): c} for k, c in rel.items()}).is_zero()
            for rel in mumford_relations(g)
        )
        checks.append((f"c_t c_-t = 1 at genus {g}", ok, ""))
    for g in range(2, max_genus + 1):
        sq = reduce_lambda_monomial(g, (g, g))
        checks.append((f"lambda_{g}^2 = 0", sq == (), str(sq)))
        got = reduce_lambda_monomial(g, (g - 1, g - 1))
        want = ((Fraction(2), (g, g - 2) if g > 2 else (g,)),)
        name = f"lambda_{g - 1}^2 = 2 lambda_{g} lambda_{g - 2}"
        checks.append((name, got == want, f"{got} vs {want}"))
    return checks


def suite_euler(max_genus: int = 5) -> List[Check]:
    checks: List[Check] = []
    for g in range(2, max_genus + 1):
        sgn = Fraction((-1) ** g)
        want = LambdaRingElem.build(g, 1, {(g,): {(): sgn}, (g - 1,): {(1,): -sgn}})
        got = euler_class(1, g)
        checks.append((f"dim 1 Euler class, g={g}", got == want, got.pretty()))

        gm2: Tuple[int, ...] = (g, g - 2) if g > 2 else (g,)
        terms = {(g, g - 1): {(1,): Fraction(-1)}, gm2: {(1, 1): Fraction(1)}}
        want = LambdaRingElem.build(g, 2, terms)
        got = euler_class(2, g)
        checks.append((f"dim 2 Euler class, g={g}", got == want, got.pretty()))
        no_c2 = all((2,) not in dict(cp) for _, cp in got.terms)
        checks.append((f"dim 2 Euler class has no c2, g={g}", no_c2, got.pretty()))

        terms = {(g - 1, g - 1, g - 1): {(3,): sgn / 2, (2, 1): -sgn / 2}}
        want = LambdaRingElem.build(g, 3, terms)
        got = euler_class(3, g)
        checks.append((f"dim 3 Euler class, g={g}", got == want, got.pretty()))
    for r in (1, 2, 3):
        low = () if r == 1 else (r - 1,)
        terms = {(): {(r,): Fraction(1)}, (1,): {low: Fraction(-1)}}
        want = LambdaRingElem.build(1, r, terms)
        got = euler_class_genus1(r)
        checks.append((f"genus 1 Euler class, r={r}", got == want, got.pretty()))
    return checks


def stirling_s2(n: int) -> int:
    """|s(n, 2)| = (n-1)! H_{n-1}, the unsigned Stirling number of the first
    kind, by |s(m+1, 2)| = m |s(m, 2)| + (m-1)!: without :func:`hodge.harmonic`,
    so that it checks c_g, which is built from H."""
    if n < 2:
        raise ValueError("n must be >= 2")
    s, fact = 1, 1  # |s(m, 2)| and (m-1)! at m = 2
    for m in range(2, n):
        s, fact = m * s + fact, m * fact
    return s


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
            w = Fraction(factorial(2 * g1 - 1) * factorial(2 * g - 2 * g1 - 1), 2)
            rhs -= w * b_constant(g1) * b_constant(g - g1)
        checks.append((f"one-point relation at g={g}", lhs == rhs, f"{lhs} vs {rhs}"))
    return checks


def suite_string_dilaton() -> List[Check]:
    """String and dilaton identities over every memoized integral of each
    family, in table order, each family after its nonzero seeds (so that a
    fresh process has entries; seeded in turn, none adds entries to a family
    swept before it); a line that swept no entry tested nothing, so it fails."""
    checks: List[Check] = []
    for row in FAMILIES.values():
        fn = row.strict
        for g, ks in row.seeds:
            fn(g, ks)
        keys = list(row.rec.memo)
        string_ok = dilaton_ok = bool(keys)
        for (g, ks) in keys:
            n = len(ks)
            lowered = sum(
                (fn(g, ks[:i] + (ks[i] - 1,) + ks[i + 1 :]) for i in range(n) if ks[i] >= 1),
                Fraction(0),
            )
            if fn(g, ks + (0,)) != lowered:
                string_ok = False
            if fn(g, ks + (1,)) != (2 * g - 2 + n) * fn(g, ks):
                dilaton_ok = False
        name = f"over {row.name} ({len(keys)} entries)"
        checks.append((f"string identity {name}", string_ok, ""))
        checks.append((f"dilaton identity {name}", dilaton_ok, ""))
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
