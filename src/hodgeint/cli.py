"""Command-line interface.

Subcommands query individual integrals (``psi``, ``lambda``, ``gw0``), emit
the one-point constant table (``bseq``), print obstruction Euler classes
(``euler``), and run the self-verification suites (``verify``).  Output
formats: ``pretty`` (default), ``json`` (rationals as "p/q" strings, stable
key order), ``csv``.

Exit codes: 0 success, 1 a verification suite failed or ran no check, 2 flag
errors (such as ``verify --max-genus`` for a suite without a genus) and inputs
beyond a size limit (more than errors.MAX_POINTS insertions; ``psi --genus``
above errors.MAX_PSI_GENUS, ``lambda --genus`` and ``gw0 --genus`` above
errors.MAX_LAMBDA_GENUS, ``euler --genus`` above errors.MAX_EULER_GENUS,
``bseq --max-genus`` above errors.MAX_BSEQ_GENUS, ``verify --max-genus`` above
the suite's errors.MAX_VERIFY_GENUS), 3 domain errors (unstable inputs, a
negative ``--max-genus``) and cache files that are malformed or cannot be opened.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

from . import cache, store
from .errors import (
    MAX_BSEQ_GENUS,
    MAX_EULER_GENUS,
    MAX_LAMBDA_GENUS,
    MAX_PSI_GENUS,
    MAX_VERIFY_GENUS,
    DomainError,
    LimitError,
    check_limit,
)
from .hodge import FAMILIES, c_constant, lambda_cube
from .psi import psi_integral
from .series1d import b_sequence

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

_TARGET_DIMS = {"P1": 1, "P2": 2, "P3": 3}
_CLASSES = {row.letter: row for row in FAMILIES.values() if row.letter}
# the names of verify.SUITES, sorted: the parser lists them without importing
# the suites, which only `verify` runs (tests/test_cli.py pins the two)
_SUITES = ("annihilation", "bseq", "cg", "closed-vs-recursion", "commutators", "euler",
           "mumford", "string-dilaton", "table")


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
        import csv
        import io

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
        choices=[*_CLASSES, "cube", "c"],
        required=True,
        help="".join(f"{letter}: {row.name}; " for letter, row in _CLASSES.items())
        + "cube: lambda_{g-1}^3 (n=0); c: the one-point constant c_g",
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
    p.add_argument("--suite", choices=_SUITES, required=True)
    p.add_argument("--max-genus", type=int, default=None)

    p = sub.add_parser("cache-info", help="show the sizes of the saved memos")
    return parser


def _run(args: argparse.Namespace) -> int:
    fmt = args.format
    if getattr(args, "max_genus", None) is not None and args.max_genus < 0:
        raise DomainError("--max-genus must be >= 0")
    if args.command == "psi":
        check_limit("--genus", args.genus, MAX_PSI_GENUS)
        value = psi_integral(args.genus, _parse_exponents(args.exponents))
        print(_emit({"genus": args.genus, "value": str(value)}, fmt))
        return EXIT_OK

    if args.command == "lambda":
        g = args.genus
        check_limit("--genus", g, MAX_LAMBDA_GENUS)
        if args.family in ("cube", "c"):
            value = lambda_cube(g) if args.family == "cube" else c_constant(g)
        elif args.exponents is None:
            raise DomainError(f"--exponents required for --class {args.family}")
        else:
            value = _CLASSES[args.family].strict(g, _parse_exponents(args.exponents))
        print(_emit({"class": args.family, "genus": g, "value": str(value)}, fmt))
        return EXIT_OK

    if args.command == "bseq":
        check_limit("--max-genus", args.max_genus, MAX_BSEQ_GENUS)
        seq = b_sequence(args.max_genus)
        payload = {f"b_{g}": str(v) for g, v in enumerate(seq)}
        print(_emit(payload, fmt))
        return EXIT_OK

    if args.command == "euler":
        g = args.genus
        if g < 1:
            raise DomainError("--genus must be >= 1")
        check_limit("--genus", g, MAX_EULER_GENUS)
        from .mumford import euler_class, euler_class_genus1

        elem = euler_class_genus1(args.dim) if g == 1 else euler_class(args.dim, g)
        print(_emit({"dim": args.dim, "genus": g, "class": elem.pretty()}, fmt))
        return EXIT_OK

    if args.command == "gw0":
        check_limit("--genus", args.genus, MAX_LAMBDA_GENUS)
        pairs = []
        for part in args.insertions.split(","):
            try:
                a, k = part.split(":")
                pairs.append((int(a), int(k)))
            except ValueError as exc:
                raise DomainError(f"bad insertion {part!r}; expected a:k") from exc
        from .mumford import degree0_gw

        value = degree0_gw(_TARGET_DIMS[args.target], args.genus, pairs)
        payload = {"target": args.target, "genus": args.genus, "value": str(value)}
        print(_emit(payload, fmt))
        return EXIT_OK

    if args.command == "verify":
        kwargs = {}
        if args.max_genus is not None:
            if args.suite not in MAX_VERIFY_GENUS:
                print(
                    f"error: --max-genus does not apply to --suite {args.suite}",
                    file=sys.stderr,
                )
                return EXIT_USAGE
            check_limit("--max-genus", args.max_genus, MAX_VERIFY_GENUS[args.suite])
            kwargs["max_genus"] = args.max_genus
        from .verify import run_suite

        checks = run_suite(args.suite, **kwargs)
        for name, ok, detail in checks:
            status = "pass" if ok else "FAIL"
            extra = f"  ({detail})" if detail and not ok else ""
            print(f"[{status}] {name}{extra}")
        failed = sum(1 for _, ok, _ in checks if not ok)
        print(f"{len(checks) - failed}/{len(checks)} checks passed")
        # a run that tested nothing fails, like a check that tested nothing
        return EXIT_OK if checks and failed == 0 else EXIT_VERIFY_FAILED

    if args.command == "cache-info":
        print(_emit({tag: len(memo) for tag, memo in store.tables().items()}, fmt))
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command}")


def _saved_entries() -> int:
    return sum(map(len, store.tables().values()))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cache_path = args.cache or os.environ.get(cache.ENV_CACHE_PATH)
    if cache_path:
        try:
            cache.load_cache(cache_path)
        except (OSError, ValueError) as exc:
            print(f"error: cache {cache_path}: {exc}", file=sys.stderr)
            return EXIT_DOMAIN
    loaded = _saved_entries()
    try:
        code = _run(args)
    except LimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if cache_path and _saved_entries() > loaded:  # a run that added nothing saves nothing
        try:
            cache.save_cache(cache_path)
        except OSError as exc:
            print(f"error: cache {cache_path}: {exc}", file=sys.stderr)
            return EXIT_DOMAIN
    return code


if __name__ == "__main__":
    sys.exit(main())
