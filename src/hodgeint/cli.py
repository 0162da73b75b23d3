"""Command-line interface.

Subcommands query individual integrals (``psi``, ``lambda``, ``gw0``), emit
the one-point constant table (``bseq``), print obstruction Euler classes
(``euler``), and run the self-verification suites (``verify``).  Output
formats: ``pretty`` (default), ``json`` (rationals as "p/q" strings, stable
key order), ``csv``.

Exit codes: 0 success, 1 a verification suite failed, 2 flag errors (such as
``verify --max-genus`` for a suite without a genus) and inputs beyond a size
limit (more than errors.MAX_POINTS insertions; ``psi --genus`` above
errors.MAX_PSI_GENUS, ``lambda --genus`` above errors.MAX_LAMBDA_GENUS,
``bseq --max-genus`` above errors.MAX_BSEQ_GENUS, ``verify --max-genus`` above
the suite's errors.MAX_VERIFY_GENUS), 3 domain errors (unstable inputs,
underdetermined integrals) and malformed cache files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence

from . import cache, store
from .errors import (
    MAX_BSEQ_GENUS,
    MAX_LAMBDA_GENUS,
    MAX_PSI_GENUS,
    MAX_VERIFY_GENUS,
    DomainError,
    LimitError,
    UnderdeterminedError,
    check_limit,
)
from .hodge import c_constant, lambda_cube, lambda_g, lambda_g_gm1, lambda_gm1
from .mumford import degree0_gw, euler_class, euler_class_genus1
from .psi import psi_integral
from .series1d import b_sequence
from .verify import SUITES, run_suite

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

_TARGET_DIMS = {"P1": 1, "P2": 2, "P3": 3}

# the keyword each suite takes --max-genus as; the other suites have no genus
_GENUS_ARGUMENT = {
    suite: "genus_cap" if suite == "annihilation" else "max_genus"
    for suite in MAX_VERIFY_GENUS
}


def _rat(x: Fraction) -> str:
    return store.format_rational(x)


def _parse_exponents(text: str) -> List[int]:
    if not text:
        return []
    try:
        return [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise DomainError(f"bad exponent list {text!r}") from exc


def _emit(payload: Dict[str, Any], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(sorted(payload))
        writer.writerow([payload[k] for k in sorted(payload)])
        return buf.getvalue().rstrip("\n")
    return "\n".join(f"{k} = {payload[k]}" for k in sorted(payload))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodgeint",
        description="Exact psi/lambda intersection numbers on moduli of curves.",
    )
    parser.add_argument(
        "--format",
        choices=("pretty", "json", "csv"),
        default="pretty",
        help="output format (default: pretty)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        help=f"memo cache file (default: ${cache.ENV_CACHE_PATH} if set)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psi", help="pure psi-class intersection number")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--exponents", required=True, help="comma-separated, any order")

    p = sub.add_parser("lambda", help="psi-lambda integral families")
    p.add_argument(
        "--class",
        dest="family",
        choices=("g", "gg", "gm1", "cube", "c"),
        required=True,
        help="g: lambda_g; gg: lambda_g lambda_{g-1}; gm1: lambda_{g-1}; "
        "cube: lambda_{g-1}^3 (n=0); c: the one-point constant c_g",
    )
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--exponents", default=None)

    p = sub.add_parser("bseq", help="one-point constants b_0..b_G from the series")
    p.add_argument("--max-genus", type=int, required=True)

    p = sub.add_parser("euler", help="obstruction-bundle Euler class")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)

    p = sub.add_parser("gw0", help="degree-zero descendent invariant")
    p.add_argument("--target", choices=sorted(_TARGET_DIMS), required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument(
        "--insertions",
        required=True,
        help="comma-separated a:k pairs (class power : descendent level)",
    )

    p = sub.add_parser("verify", help="run a self-verification suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--max-genus", type=int, default=None)

    p = sub.add_parser("cache-info", help="show memo table sizes")
    return parser


def _run(args: argparse.Namespace) -> int:
    fmt = args.format
    if args.command == "psi":
        check_limit("--genus", args.genus, MAX_PSI_GENUS)
        value = psi_integral(args.genus, _parse_exponents(args.exponents))
        print(_emit({"genus": args.genus, "value": _rat(value)}, fmt))
        return EXIT_OK

    if args.command == "lambda":
        g = args.genus
        check_limit("--genus", g, MAX_LAMBDA_GENUS)
        needs_exponents = args.family in ("g", "gg", "gm1")
        if needs_exponents and args.exponents is None:
            raise DomainError(f"--exponents required for --class {args.family}")
        if args.family == "g":
            value = lambda_g(g, _parse_exponents(args.exponents))
        elif args.family == "gg":
            value = lambda_g_gm1(g, _parse_exponents(args.exponents))
        elif args.family == "gm1":
            value = lambda_gm1(g, _parse_exponents(args.exponents))
        elif args.family == "cube":
            value = lambda_cube(g)
        else:
            value = c_constant(g)
        print(_emit({"class": args.family, "genus": g, "value": _rat(value)}, fmt))
        return EXIT_OK

    if args.command == "bseq":
        if args.max_genus < 0:
            raise DomainError("--max-genus must be >= 0")
        check_limit("--max-genus", args.max_genus, MAX_BSEQ_GENUS)
        seq = b_sequence(args.max_genus)
        payload = {f"b_{g}": _rat(v) for g, v in enumerate(seq)}
        print(_emit(payload, fmt))
        return EXIT_OK

    if args.command == "euler":
        g = args.genus
        elem = euler_class_genus1(args.dim) if g == 1 else euler_class(args.dim, g)
        print(_emit({"dim": args.dim, "genus": g, "class": elem.pretty()}, fmt))
        return EXIT_OK

    if args.command == "gw0":
        pairs = []
        for part in args.insertions.split(","):
            try:
                a, k = part.split(":")
                pairs.append((int(a), int(k)))
            except ValueError as exc:
                raise DomainError(f"bad insertion {part!r}; expected a:k") from exc
        value = degree0_gw(_TARGET_DIMS[args.target], args.genus, pairs)
        print(
            _emit(
                {"target": args.target, "genus": args.genus, "value": _rat(value)},
                fmt,
            )
        )
        return EXIT_OK

    if args.command == "verify":
        kwargs = {}
        if args.max_genus is not None:
            if args.suite not in _GENUS_ARGUMENT:
                print(
                    f"error: --max-genus does not apply to --suite {args.suite}",
                    file=sys.stderr,
                )
                return EXIT_USAGE
            check_limit("--max-genus", args.max_genus, MAX_VERIFY_GENUS[args.suite])
            kwargs[_GENUS_ARGUMENT[args.suite]] = args.max_genus
        checks = run_suite(args.suite, **kwargs)
        for name, ok, detail in checks:
            status = "pass" if ok else "FAIL"
            extra = f"  ({detail})" if detail and not ok else ""
            print(f"[{status}] {name}{extra}")
        failed = sum(1 for _, ok, _ in checks if not ok)
        print(f"{len(checks) - failed}/{len(checks)} checks passed")
        return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED

    if args.command == "cache-info":
        payload = {tag: len(tbl) for tag, tbl in store.tables().items()}
        payload["computed_this_run"] = store.computed_count()
        print(_emit(payload, fmt))
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cache_path = args.cache or os.environ.get(cache.ENV_CACHE_PATH)
    if cache_path:
        try:
            cache.load_cache(cache_path)
        except ValueError as exc:
            print(f"error: cache {cache_path}: {exc}", file=sys.stderr)
            return EXIT_DOMAIN
    try:
        code = _run(args)
    except LimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, UnderdeterminedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if cache_path:
        cache.save_cache(cache_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
