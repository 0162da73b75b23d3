"""hodgeint benchmark driver.

    python3 bench/run.py --workload psi_deep --seed 1 --seconds 20 --trace 0

Runs one workload for about ``--seconds`` seconds, one worker process at a
time, each sample in a fresh interpreter (so every sample is cold and no
memo is ever cleared from here), checks every output, prints a report and,
as the last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` they are its per-layer metrics, taken from
samples with spans (see spans.py) alternating with untraced samples that give
the tracing overhead.  Metric names, units and directions live in
BENCHMARK.json; README.md in this directory explains them.

Exits with code 2, printing no result, when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from importlib import metadata
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150.0
SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3
PROBE_ITERATIONS = 100_000  # about 8 ms on one 2.1 GHz Xeon core
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import hodgeint; "
    "print(time.perf_counter() - t)"
)
LAYERS = (
    "psi", "phase_space", "hodge", "constraints", "mumford",
    "operators", "cache", "cli", "series1d",
)
CLI_SUBCOMMANDS = ("psi", "lambda", "bseq", "euler", "gw0", "cache-info")
# span name -> per-layer metric holding its self time
SPAN_METRICS = {
    "psi": "psi.s",
    "psi.point_partition": "psi.point_partition_s",
    "phase_space": "phase_space.s",
    "hodge.closed": "hodge.closed_s",
    "hodge.solver": "hodge.solver_s",
    "hodge.gm1": "hodge.gm1_s",
    "constraints": "constraints.s",
    "mumford.euler": "mumford.euler_s",
    "mumford.gw0": "mumford.gw0_s",
    "operators.build": "operators.build_s",
    "operators.compose": "operators.compose_s",
    "operators.apply": "operators.apply_s",
    "cache.load": "cache.load_s",
    "cache.save": "cache.save_s",
    "series1d.bseq": "series1d.bseq_s",
}
COUNT_METRICS = (
    "psi.memo_entries", "hodge.memo_entries", "operators.terms",
    "operators.result_terms", "phase_space.series_terms", "cache.entries", "cache.bytes",
)


class BenchError(Exception):
    pass


class Child(NamedTuple):
    code: int
    out: str
    err: str
    wall_s: float
    rss_mb: float


def spin(iterations: int) -> float:
    """Seconds for a fixed pure-Python loop."""
    start = perf_counter()
    x = 0
    for i in range(iterations):
        x = (x * 31 + i) % 1_000_003
    return perf_counter() - start


def fastest_cpu(cpus) -> int:
    """The CPU that runs a short probe loop fastest right now.

    On a shared host each virtual CPU at times runs about 40 % slower, in
    spells of seconds that come and go on each CPU independently.  A child
    pinned to the CPU that is fast when it starts is less often caught in
    one; unpinned, it can stay on a slow CPU for a whole run.
    """
    timings = []
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        timings.append((spin(PROBE_ITERATIONS), cpu))
    return min(timings)[1]


class Runner:
    """Starts one child process at a time, pinned to the fastest CPU, and
    reaps it with its resource usage, so each sample's peak memory is its
    own."""

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp
        self.env = {k: v for k, v in os.environ.items() if k != "HODGEINT_CACHE"}
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def run(self, args: List[str], stdin: str = "") -> Child:
        paths = [self.tmp / name for name in ("stdin", "stdout", "stderr")]
        paths[0].write_text(stdin)
        write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, str(paths[0]), os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(paths[1]), write, 0o600),
            (os.POSIX_SPAWN_OPEN, 2, str(paths[2]), write, 0o600),
        ]
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {fastest_cpu(cpus)})  # the child inherits it
        start = perf_counter()
        try:
            pid = os.posix_spawn(
                sys.executable, [sys.executable] + args, self.env, file_actions=actions
            )
        finally:
            os.sched_setaffinity(0, cpus)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            timer.cancel()
        wall_s = perf_counter() - start
        return Child(
            os.waitstatus_to_exitcode(status),
            paths[1].read_text(),
            paths[2].read_text(),
            wall_s,
            usage.ru_maxrss / 1024,
        )

    def worker(self, job: Dict) -> Dict:
        child = self.run([str(BENCH / "worker.py")], json.dumps(job))
        if child.code != 0:
            raise BenchError(f"worker exited with {child.code}:\n{child.err}")
        result = json.loads(child.out.strip().splitlines()[-1])
        result["rss_mb"] = child.rss_mb
        return result


# ---------------------------------------------------------------------------
# samples


def cli_sample(runner: Runner, inputs: Dict, trace: bool) -> Dict:
    """The script twice, as fresh processes, against one new cache file: the
    cold pass writes it and the warm pass reads it.  Traced, each command is
    replayed in-process in its own fresh worker."""
    cache = Path(tempfile.mkdtemp(dir=runner.tmp)) / "cache.jsonl"
    checks = workloads.Checks()
    latency: Dict[str, List[float]] = {"cold": [], "warm": []}
    sample: Dict = {"rss_mb": 0.0, "counts": {}}
    spans = {"self_s": Counter(), "calls": Counter(), "spans": 0, "missing": set()}
    start = perf_counter()
    for phase in ("cold", "warm"):
        for argv in inputs["commands"]:
            if trace:
                job = {"workload": "cli_command", "inputs": {"argv": argv, "cache": str(cache)}}
                result = runner.worker({**job, "trace": True})
                checks.attempted += result["attempted"]
                checks.failed += result["failed"]
                checks.failures += result["failures"]
                sample["counts"].update(result["counts"])
                sample["rss_mb"] = max(sample["rss_mb"], result["rss_mb"])
                # each replay runs one command: its cli span is that command's
                self_s = result["trace"]["self_s"]
                self_s[f"cli.{workloads.subcommand(argv)}.{phase}"] = self_s.pop("cli", 0.0)
                spans["self_s"].update(self_s)
                spans["calls"].update(result["trace"]["calls"])
                spans["spans"] += result["trace"]["spans"]
                spans["missing"].update(result["trace"]["missing"])
            else:
                child = runner.run(["-m", "hodgeint.cli", "--cache", str(cache)] + argv)
                workloads.check_cli(checks, argv, child.code, child.out, cache)
                sample["rss_mb"] = max(sample["rss_mb"], child.rss_mb)
                latency[phase].append(child.wall_s)
        if phase == "cold":
            on_disk = workloads.cache_records(cache)
            sample["counts"]["cache.bytes"] = on_disk.pop("bytes")
            sample["counts"]["cache.entries"] = sum(on_disk.values())
    sample.update(
        wall_s=perf_counter() - start,
        attempted=checks.attempted,
        failed=checks.failed,
        failures=checks.failures,
        latency=latency,
    )
    if trace:
        sample["trace"] = spans
    return sample


def collect(seconds: float, take: Callable[[int], Dict], min_samples: int) -> List[Dict]:
    """Take samples until the next one, at the median sample duration so
    far, would end after the time budget."""
    samples: List[Dict] = []
    durations: List[float] = []
    deadline = perf_counter() + seconds
    while True:
        t = perf_counter()
        samples.append(take(len(samples)))
        durations.append(perf_counter() - t)
        if len(samples) >= min_samples and perf_counter() + statistics.median(durations) > deadline:
            return samples


# ---------------------------------------------------------------------------
# metrics


def import_time(runner: Runner) -> float:
    """One fresh-interpreter ``import hodgeint`` time."""
    child = runner.run(["-c", IMPORT_SNIPPET])
    if child.code != 0:
        raise BenchError(f"import hodgeint failed:\n{child.err}")
    return float(child.out)


def mumford_import_s(runner: Runner) -> float:
    """Cumulative import seconds of hodgeint.mumford, sympy included, from
    ``python -X importtime``; the median over a few interpreters, and 0 when
    ``import hodgeint`` no longer imports it."""
    found = []
    for _ in range(IMPORTTIME_SAMPLES):
        child = runner.run(["-X", "importtime", "-c", "import hodgeint"])
        seconds = 0.0
        for line in child.err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "hodgeint.mumford":
                seconds = int(parts[1]) / 1e6
        found.append(seconds)
    return statistics.median(found)


def layer_metrics(sample: Dict) -> Dict[str, float]:
    trace = sample["trace"]
    self_s, calls = trace["self_s"], trace["calls"]
    out = {metric: self_s.get(span, 0.0) for span, metric in SPAN_METRICS.items()}
    for sub in CLI_SUBCOMMANDS:
        for phase in ("cold", "warm"):
            out[f"cli.{sub}.{phase}_s"] = self_s.get(f"cli.{sub}.{phase}", 0.0)
    out["psi.calls"] = calls.get("psi", 0)
    out["constraints.calls"] = calls.get("constraints", 0)
    for name in COUNT_METRICS:
        out[name] = sample["counts"].get(name, 0)
    wall = sample["wall_s"]
    spanned = 0.0
    for layer in LAYERS:
        layer_s = sum(t for name, t in self_s.items() if name.split(".")[0] == layer)
        out[f"{layer}.share"] = 100 * layer_s / wall
        spanned += layer_s
    out["unspanned.share"] = 100 * (wall - spanned) / wall
    out["trace.wall_s"] = wall
    out["trace.spans"] = trace["spans"]
    return out


def median_of(samples: List[Dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def run_info(workload: str, seed: int, inputs: Dict) -> Dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = git.stdout.strip() or commit
    try:
        sympy_version = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = "absent"
    return {
        "workload": workload,
        "seed": seed,
        "inputs": workloads.input_counts(inputs),
        "commit": commit,
        "python": sys.version.split()[0],
        "sympy": sympy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_s": calibration_loop(),
    }


def calibration_loop() -> float:
    """Seconds for a fixed pure-Python loop; recorded so that runs on a busy
    host can be spotted.  The metrics are never divided by it."""
    return spin(3_000_000)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # a terminated run still kills and reaps its child and removes its
    # scratch directory, on the BaseException paths below
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "hodgeint" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    inputs = workloads.make_inputs(args.workload, args.seed)
    info = run_info(args.workload, args.seed, inputs)
    print("run " + json.dumps(info, sort_keys=True))

    tmp = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        runner = Runner(tmp)

        def take(i: int) -> Dict:
            traced = bool(args.trace) and i % 2 == 0
            if args.workload == "cli_session":
                sample = cli_sample(runner, inputs, traced)
            else:
                job = {"workload": args.workload, "inputs": inputs, "trace": traced}
                sample = runner.worker(job)
            if not args.trace:
                # spread over the run, so a slow spell of the host skews
                # set-up no more than it skews the samples
                sample["setup_s"] = import_time(runner)
            return sample

        if args.trace:
            samples = collect(args.seconds, take, min_samples=2)
            values = report_traced(runner, samples)
            wanted = manifest["per_layer"]
        else:
            import_time(runner)  # untimed: writes the bytecode cache
            setup = [import_time(runner) for _ in range(SETUP_SAMPLES)]
            samples = collect(args.seconds, take, min_samples=1)
            setup += [s["setup_s"] for s in samples]
            values = report_untraced(setup, samples)
            wanted = manifest["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    for s in samples:
        for name in s["failures"]:
            print(f"FAILED check: {name}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(
        json.dumps(
            {
                "correct": failed == 0 and attempted > 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def report_untraced(setup: List[float], samples: List[Dict]) -> Dict[str, float]:
    n = len(samples)
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    walls = [s["wall_s"] for s in samples]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": median_of(samples, "wall_s"),
        "peak_rss_mb": median_of(samples, "rss_mb"),
    }
    print(f"setup_s = {values['setup_s']:.6f} s (median of {len(setup)} fresh imports)")
    print(f"wall_s = {values['wall_s']:.6f} s (median of {n} samples)")
    print(f"wall_s fastest = {min(walls):.6f} s, slowest = {max(walls):.6f} s")
    print("wall_s samples " + json.dumps([round(w, 4) for w in walls]))
    print(f"peak_rss_mb = {values['peak_rss_mb']:.3f} MB (median of {n} samples)")
    print(f"fail_frac = {failed}/{attempted} = {failed / attempted:.6f} (checks, {n} samples)")
    if "latency" in samples[0]:
        for phase in ("cold", "warm"):
            lat = [t for s in samples for t in s["latency"][phase]]
            print(
                f"cli_{phase}_p50_s = {statistics.median(lat):.6f} s "
                f"(median of {len(lat)} commands)"
            )
    counts = samples[0]["counts"]
    print("counts " + json.dumps(counts, sort_keys=True))
    return values


def report_traced(runner: Runner, samples: List[Dict]) -> Dict[str, float]:
    traced = [s for s in samples if "trace" in s]
    untraced = [s for s in samples if "trace" not in s]
    per_sample = [layer_metrics(s) for s in traced]
    values = {name: statistics.median(v[name] for v in per_sample) for name in per_sample[0]}
    values["trace.untraced_wall_s"] = median_of(untraced, "wall_s")
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    values["mumford.import_s"] = mumford_import_s(runner)
    missing = sorted({m for s in traced for m in s["trace"]["missing"]})
    if missing:
        print("spans missing for: " + ", ".join(missing))
    print(f"traced samples: {len(traced)}, untraced samples: {len(untraced)}")
    for name in sorted(values):
        print(f"{name} = {values[name]}")
    return values


if __name__ == "__main__":
    sys.exit(main())
