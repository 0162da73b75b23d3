"""One benchmark sample in a fresh interpreter.

Reads a job ``{"workload", "inputs", "trace"}`` as JSON from stdin, imports
hodgeint, runs the workload body on the inputs (with spans when ``trace`` is
set) and prints one JSON line: the seconds from the end of the import to the
last checked result, check counts, work counts and, when traced, the span
summary.  Peak memory is read by the parent from the process's resource
usage.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    job = json.load(sys.stdin)
    import hodgeint

    if job["workload"] == "cli_command":
        import hodgeint.cli  # noqa: F401  (a CLI command imports it too)

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(hodgeint.__file__).resolve().parents:
        print(f"hodgeint imported from {hodgeint.__file__}, not from {src}", file=sys.stderr)
        return 3

    import spans
    import workloads

    rec = spans.Recorder()
    start = perf_counter()
    if job["trace"]:
        spans.install(rec)
    checks = workloads.Checks()
    counts = workloads.BODIES[job["workload"]](job["inputs"], checks)
    wall_s = perf_counter() - start
    result = {
        "wall_s": wall_s,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "counts": counts,
    }
    if job["trace"]:
        result["trace"] = rec.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
