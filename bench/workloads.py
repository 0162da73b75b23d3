"""The benchmark's workloads: seeded input generation and checked bodies.

``make_inputs`` runs in the driver process and needs no ``hodgeint`` import.
The ``run_*`` bodies run inside a fresh worker interpreter (see worker.py):
each receives only the generated inputs, calls the package's public API, and
records every check it makes in a :class:`Checks` object, so that a wrong
value counts as a failed check instead of ending the run.

``kappa_lambda_integral`` is left out on purpose: its values with three or
more kappa indices are wrong at the commit that introduced this benchmark
(the set-partition inversion carries extra (|B|-1)! weights), and recording
them here would pin a wrong value as correct.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import factorial
from typing import Dict, List, Sequence, Tuple

WORKLOADS = ("psi_deep", "hodge_sweep", "operator_algebra", "cli_session")

Key = Tuple[int, Tuple[int, ...]]


class Checks:
    """Counts attempted and failed checks; keeps the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(name)


# ---------------------------------------------------------------------------
# input generation (driver side)


def multisets(n: int, total: int, cap: int = -1) -> List[Tuple[int, ...]]:
    """Non-increasing n-tuples of nonnegative ints, each at most cap (no
    bound when negative), summing to total."""
    if n == 0:
        return [()] if total == 0 else []
    top = total if cap < 0 else min(cap, total)
    return [
        (first,) + rest
        for first in range(top, -1, -1)
        if first * n >= total
        for rest in multisets(n - 1, total - first, first)
    ]


def _grid(gmin: int, gmax: int, nmax: int, degree) -> List[Key]:
    """Every stable key (g, exponents) whose exponent sum is degree(g, n)."""
    return [
        (g, ks)
        for g in range(gmin, gmax + 1)
        for n in range(3 if g == 0 else 1, nmax + 1)
        if degree(g, n) >= 0
        for ks in multisets(n, degree(g, n))
    ]


def _sample(rng: random.Random, keys: List[Key]) -> List[List]:
    """Half of the keys, chosen by the seed, kept in grid order."""
    picked = sorted(rng.sample(range(len(keys)), len(keys) // 2))
    return [[keys[i][0], list(keys[i][1])] for i in picked]


def _random_multiset(rng: random.Random, size: int, total: int) -> List[int]:
    cuts = sorted(rng.randint(0, total) for _ in range(size - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return sorted(parts, reverse=True) if size else []


def _balanced_keys(rng: random.Random, g: int, n: int, count: int) -> List[List]:
    """The balanced exponent vector at (g, n) and count - 1 seeded neighbours,
    each a few unit transfers away from it."""
    q, r = divmod(3 * g - 3 + n, n)
    balanced = [q + 1] * r + [q] * (n - r)
    keys = [tuple(balanced)]
    while len(keys) < count:
        ks = list(balanced)
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(n), 2)
            if ks[i] > 0:
                ks[i] -= 1
                ks[j] += 1
        key = tuple(sorted(ks, reverse=True))
        if key not in keys:
            keys.append(key)
    return [[g, list(ks)] for ks in keys]


def _curve_triples(rng: random.Random, count: int) -> List[List]:
    """(k, g, derivs) for x_curve whose leading term has matching dimension:
    k + 1 + sum(derivs) = 2g - 2 + (1 + len(derivs))."""
    out = []
    while len(out) < count:
        g, m = rng.randint(1, 6), rng.randint(0, 3)
        top = 2 * g - 2 + m
        k = top if m == 0 else rng.randint(1, min(5, top))
        if 1 <= k <= 5:
            out.append([k, g, _random_multiset(rng, m, top - k)])
    return out


def _y_curve_quads(rng: random.Random, count: int) -> List[List]:
    """(k, g, ell, derivs) for y_curve with matching leading dimension:
    k + 1 + ell + sum(derivs) = 2g - 3 + (2 + len(derivs))."""
    out = []
    while len(out) < count:
        g, m = rng.randint(1, 6), rng.randint(0, 3)
        k, ell = rng.randint(1, 5), rng.randint(0, 3)
        rest = 2 * g - 2 + m - k - ell
        if rest >= 0 and (m > 0 or rest == 0):
            out.append([k, g, ell, _random_multiset(rng, m, rest)])
    return out


def _gw0_queries(rng: random.Random) -> List[List]:
    """[target dim, genus, [[class power, level], ...]] with one insertion of
    class power 1 (or none, on P1) so that only the lambda families with a
    known evaluation appear."""
    out = []
    for r in (1, 1, 1, 1, 2, 2, 2, 2):
        g, n = rng.randint(2, 5), rng.randint(1, 3)
        adeg = 1 if r == 2 else rng.randint(0, 1)
        total = {(1, 1): 2 * g - 3, (1, 0): 2 * g - 2, (2, 1): g - 2}[(r, adeg)] + n
        levels = _random_multiset(rng, n, total)
        out.append([r, g, [[adeg if i == 0 else 0, k] for i, k in enumerate(levels)]])
    return out


def make_inputs(workload: str, seed: int) -> Dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "psi_deep":
        multi = []
        for g, n in ((4, 7), (5, 6), (6, 5)):
            multi += _balanced_keys(rng, g, n, 4)
        return {"one_point_genera": list(range(1, 11)), "multi_point": multi}
    if workload == "hodge_sweep":
        return {
            "lambda_g": _sample(rng, _grid(0, 9, 10, lambda g, n: 2 * g - 3 + n)),
            "lambda_g_gm1": _sample(rng, _grid(1, 9, 10, lambda g, n: g - 2 + n)),
            "lambda_gm1": _sample(rng, _grid(2, 7, 7, lambda g, n: 2 * g - 2 + n)),
            "x_curve": _curve_triples(rng, 150),
            "y_curve": _y_curve_quads(rng, 150),
            "euler": [[r, g] for g in range(1, 9) for r in (1, 2, 3)],
            "gw0": _gw0_queries(rng),
        }
    if workload == "operator_algebra":
        return {
            "targets": ["point", "P1", "P2", "P3"],
            "build_levels": [-1, 0, 1, 2, 3],
            "level_cap": 16,
            "check_cap": 6,
            "pairs": [[k, l] for k in (-1, 0, 1, 2) for l in (-1, 0, 1, 2) if k < l],
            "apply_levels": [-1, 0, 1, 2],
            "weight_cap": 11,
            "genus_cap": 4,
        }
    if workload == "cli_session":
        return {"commands": [argv for argv, _ in CLI_SCRIPT]}
    raise ValueError(f"unknown workload {workload!r}")


def input_counts(inputs: Dict) -> Dict[str, int]:
    return {name: len(v) for name, v in inputs.items() if isinstance(v, list)}


# ---------------------------------------------------------------------------
# psi_deep


def _df(n: int) -> int:
    """Double factorial with (-1)!! = 1."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _psi_or_zero(psi_integral, g: int, ks: Sequence[int]) -> Fraction:
    n = len(ks)
    if g < 0 or (g == 0 and n < 3) or (g == 1 and n == 0) or min(ks, default=0) < 0:
        return Fraction(0)
    if sum(ks) != 3 * g - 3 + n:
        return Fraction(0)
    return psi_integral(g, list(ks))


def dvv_rhs(psi_integral, g: int, ks: Tuple[int, ...], i: int) -> Fraction:
    """The Dijkgraaf-Verlinde-Verlinde recursion in its double-factorial
    form, removing insertion i (ks[i] >= 1), with values from psi_integral:

    (2k+3)!! <tau_{k+1} S>_g = sum_j (2k+2d_j+1)!!/(2d_j-1)!! <tau_{d_j+k} S\\j>_g
        + 1/2 sum_{r+s=k-1} (2r+1)!! (2s+1)!! ( <tau_r tau_s S>_{g-1}
              + sum_{g1+g2=g, I+J=S} <tau_r I>_{g1} <tau_s J>_{g2} ).
    """
    def P(genus, exps):
        return _psi_or_zero(psi_integral, genus, exps)

    k = ks[i] - 1
    rest = ks[:i] + ks[i + 1 :]
    total = Fraction(0)
    for j, d in enumerate(rest):
        others = rest[:j] + rest[j + 1 :]
        total += Fraction(_df(2 * k + 2 * d + 1), _df(2 * d - 1)) * P(g, (d + k,) + others)
    for r in range(k):
        s = k - 1 - r
        w = Fraction(_df(2 * r + 1) * _df(2 * s + 1), 2)
        total += w * P(g - 1, (r, s) + rest)
        for mask in range(1 << len(rest)):
            left = tuple(x for b, x in enumerate(rest) if mask >> b & 1)
            right = tuple(x for b, x in enumerate(rest) if not mask >> b & 1)
            for g1 in range(g + 1):
                total += w * P(g1, (r,) + left) * P(g - g1, (s,) + right)
    return total / _df(2 * k + 3)


def run_psi_deep(inputs: Dict, checks: Checks) -> Dict[str, int]:
    from hodgeint import psi_integral, store

    for g, ks in inputs["multi_point"]:
        ks = tuple(ks)
        value = psi_integral(g, list(ks))
        # reduce the smallest positive insertion; the package reduces the largest
        i = max(j for j, k in enumerate(ks) if k >= 1)
        checks.check(f"psi {g} {ks} > 0", value > 0)
        checks.check(f"psi {g} {ks} DVV", value == dvv_rhs(psi_integral, g, ks, i))
    for g in inputs["one_point_genera"]:
        value = psi_integral(g, [3 * g - 2])
        checks.check(f"psi {g} one-point", value == Fraction(1, 24**g * factorial(g)))
    return _memo_counts(store)


def _memo_counts(store) -> Dict[str, int]:
    tables = store.tables()
    return {
        "psi.memo_entries": len(tables.get("psi", {})),
        "hodge.memo_entries": sum(len(t) for tag, t in tables.items() if tag != "psi"),
    }


# ---------------------------------------------------------------------------
# hodge_sweep


def _expected_euler(LambdaRingElem, r: int, g: int):
    """The closed forms of the obstruction Euler class (AC8)."""
    if g == 1:
        return LambdaRingElem.build(
            1, r, {(): {(r,): Fraction(1)}, (1,): {(() if r == 1 else (r - 1,)): Fraction(-1)}}
        )
    sgn = Fraction((-1) ** g)
    if r == 1:
        return LambdaRingElem.build(g, 1, {(g,): {(): sgn}, (g - 1,): {(1,): -sgn}})
    if r == 2:
        gm2 = (g, g - 2) if g > 2 else (g,)
        return LambdaRingElem.build(
            g, 2, {(g, g - 1): {(1,): Fraction(-1)}, gm2: {(1, 1): Fraction(1)}}
        )
    return LambdaRingElem.build(
        g, 3, {(g - 1, g - 1, g - 1): {(3,): sgn / 2, (2, 1): -sgn / 2}}
    )


def run_hodge_sweep(inputs: Dict, checks: Checks) -> Dict[str, int]:
    import hodgeint as h
    from hodgeint import store

    for g, ks in inputs["lambda_g"]:
        checks.check(f"lambda_g {g} {ks}", h.lambda_g(g, ks) == h.lambda_g_solver(g, ks))
    for g, ks in inputs["lambda_g_gm1"]:
        checks.check(
            f"lambda_g_gm1 {g} {ks}", h.lambda_g_gm1(g, ks) == h.lambda_g_gm1_solver(g, ks)
        )
    # lambda_{g-1} has no independent oracle yet: values with at most four
    # insertions are checked through the x_curve coefficient whose leading
    # term they are (more insertions make x_curve's subset sum dominate)
    for g, ks in inputs["lambda_gm1"]:
        h.lambda_gm1(g, ks)
        if ks[0] >= 2 and len(ks) <= 4:
            checks.check(f"lambda_gm1 {g} {ks}", h.x_curve(ks[0] - 1, g, ks[1:]) == 0)
    for k, g, derivs in inputs["x_curve"]:
        checks.check(f"x_curve {k} {g} {derivs}", h.x_curve(k, g, derivs) == 0)
    for k, g, ell, derivs in inputs["y_curve"]:
        checks.check(f"y_curve {k} {g} {ell} {derivs}", h.y_curve(k, g, ell, derivs) == 0)
    for r, g in inputs["euler"]:
        got = h.euler_class_genus1(r) if g == 1 else h.euler_class(r, g)
        checks.check(f"euler {r} {g}", got == _expected_euler(h.LambdaRingElem, r, g))
    for r, g, insertions in inputs["gw0"]:
        got = h.degree0_gw(r, g, [tuple(p) for p in insertions])
        ks = [k for _, k in insertions]
        if r == 2:
            want = -3 * h.lambda_g_gm1(g, ks)
        elif insertions[0][0] == 1:
            want = (-1) ** g * h.lambda_g(g, ks)
        else:
            want = -2 * (-1) ** g * h.lambda_gm1(g, ks)
        checks.check(f"gw0 P{r} {g} {insertions}", got == want)
    checks.check("gw0 P1 2 [(1,2)] = 7/5760", h.degree0_gw(1, 2, [(1, 2)]) == Fraction(7, 5760))
    checks.check("gw0 P1 2 [(0,3)] = -1/240", h.degree0_gw(1, 2, [(0, 3)]) == Fraction(-1, 240))
    return _memo_counts(store)


# ---------------------------------------------------------------------------
# operator_algebra


def _point_grading_vanishes(h: int, mono) -> bool:
    """Coefficients of the point partition function vanish unless the
    descendent weight equals 3 * (hbar power) + 2 * (number of insertions)."""
    weight = sum((level + 1) * e for (_, level), e in mono)
    degree = sum(e for _, e in mono)
    return weight != 3 * h + 2 * degree


def run_operator_algebra(inputs: Dict, checks: Checks) -> Dict[str, int]:
    import hodgeint as h
    from hodgeint import store

    makers = {"point": h.point_data, "P1": h.p1_data, "P2": h.p2_data, "P3": h.p3_data}
    cap, check_cap = inputs["level_cap"], inputs["check_cap"]
    terms = result_terms = 0
    for name in inputs["targets"]:
        data = makers[name]()
        ops = {k: h.general_operator(k, data, cap) for k in inputs["build_levels"]}
        terms += sum(len(op.terms) for op in ops.values())
        for k, l in inputs["pairs"]:
            bracket = h.commutator(ops[k], ops[l])
            result_terms += len(bracket.terms)
            want = ops[k + l].scale(Fraction(k - l)).level_filter(check_cap)
            residual = bracket.level_filter(check_cap) - want
            checks.check(f"{name} [L_{k}, L_{l}]", residual.is_zero())

    z = h.point_partition(inputs["weight_cap"], inputs["genus_cap"])
    for k in inputs["apply_levels"]:
        op = h.point_operator(k, inputs["weight_cap"])
        terms += len(op.terms)
        result, tainted = h.apply_operator(
            op, z, source_vanishes=_point_grading_vanishes, basis_size=1
        )
        result_terms += len(result.terms)
        determined = [key for key, c in result.terms.items() if key not in tainted and c != 0]
        checks.check(f"point L_{k} annihilates Z", not determined)
    counts = _memo_counts(store)
    counts.update(
        {
            "operators.terms": terms,
            "operators.result_terms": result_terms,
            "phase_space.series_terms": len(z.terms),
        }
    )
    return counts


# ---------------------------------------------------------------------------
# cli_session: a fixed script; every value below is published in the README,
# the source paper's tables, or follows from a closed form.

CLI_SCRIPT: List[Tuple[List[str], str]] = [
    (["psi", "--genus", "2", "--exponents", "4"], "genus = 2\nvalue = 1/1152"),
    (["psi", "--genus", "2", "--exponents", "3,2"], "genus = 2\nvalue = 29/5760"),
    (
        ["psi", "--genus", "10", "--exponents", "28"],
        f"genus = 10\nvalue = 1/{24**10 * factorial(10)}",
    ),
    (
        ["lambda", "--class", "g", "--genus", "3", "--exponents", "4"],
        "class = g\ngenus = 3\nvalue = 31/967680",
    ),
    (
        ["lambda", "--class", "gg", "--genus", "3", "--exponents", "2"],
        "class = gg\ngenus = 3\nvalue = 1/120960",
    ),
    (
        ["lambda", "--class", "gm1", "--genus", "2", "--exponents", "3"],
        "class = gm1\ngenus = 2\nvalue = 1/480",
    ),
    (["lambda", "--class", "cube", "--genus", "3"], "class = cube\ngenus = 3\nvalue = 1/725760"),
    (
        ["--format", "json", "lambda", "--class", "c", "--genus", "3"],
        '{"class": "c", "genus": 3, "value": "41/580608"}',
    ),
    (
        ["--format", "csv", "bseq", "--max-genus", "5"],
        "b_0,b_1,b_2,b_3,b_4,b_5\n1,1/24,7/5760,31/967680,127/154828800,73/3503554560",
    ),
    (
        ["euler", "--dim", "2", "--genus", "3"],
        "class = (1)*c1*c1*lam3*lam1 + (-1)*c1*lam3*lam2\ndim = 2\ngenus = 3",
    ),
    (
        ["gw0", "--target", "P1", "--genus", "2", "--insertions", "1:2"],
        "genus = 2\ntarget = P1\nvalue = 7/5760",
    ),
    (["cache-info"], ""),
]

CLI_EXPECTED = {tuple(argv): out for argv, out in CLI_SCRIPT}


def subcommand(argv: Sequence[str]) -> str:
    return argv[2] if argv[0] == "--format" else argv[0]


def cache_records(path) -> Dict[str, int]:
    """Record count per tag, and the bytes of the record lines (the header
    carries a timestamp, so it is left out of the byte count)."""
    counts: Dict[str, int] = {}
    size = 0
    with open(path, "rb") as fh:
        fh.readline()
        for line in fh:
            size += len(line)
            tag = json.loads(line)["tag"]
            counts[tag] = counts.get(tag, 0) + 1
    return {"bytes": size, **counts}


def check_cli(checks: Checks, argv: Sequence[str], code: int, stdout: str, cache_path) -> None:
    """Exit code 0 and the expected output.  cache-info lists table sizes,
    which must match the cache file it has just loaded."""
    name = " ".join(argv)
    checks.check(f"{name}: exit 0", code == 0)
    stdout = stdout.strip()
    if subcommand(argv) == "cache-info":
        shown = dict(line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)
        on_disk = cache_records(cache_path)
        checks.check(f"{name}: psi count", shown.get("psi") == str(on_disk.get("psi", 0)))
    else:
        checks.check(f"{name}: output", stdout == CLI_EXPECTED[tuple(argv)])


def run_cli_command(inputs: Dict, checks: Checks) -> Dict[str, int]:
    """One CLI invocation replayed in-process (the traced cli_session)."""
    import contextlib
    import io

    from hodgeint import cli, store

    argv = inputs["argv"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--cache", inputs["cache"]] + list(argv))
    check_cli(checks, argv, code, out.getvalue(), inputs["cache"])
    return _memo_counts(store)


BODIES = {
    "psi_deep": run_psi_deep,
    "hodge_sweep": run_hodge_sweep,
    "operator_algebra": run_operator_algebra,
    "cli_command": run_cli_command,
}
