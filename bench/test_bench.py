"""The benchmark's own tests (not part of the package's suite).

    python3 -m pytest bench/test_bench.py

Work counts must repeat exactly between two runs with the same seed, so that
a change can show a gain as a count as well as a time.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

BENCH = Path(__file__).resolve().parent
EXACT_COUNTS = (
    "psi.memo_entries",
    "hodge.memo_entries",
    "operators.terms",
    "operators.result_terms",
    "phase_space.series_terms",
    "cache.entries",
    "cache.bytes",
    "psi.calls",
    "constraints.calls",
    "trace.spans",
)


def test_inputs_follow_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make_inputs(name, 3) == workloads.make_inputs(name, 3)
    for name in ("psi_deep", "hodge_sweep"):
        assert workloads.make_inputs(name, 3) != workloads.make_inputs(name, 4)


def _traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    return {name: result["metrics"][name]["value"] for name in EXACT_COUNTS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_work_counts_repeat_exactly(workload):
    first = _traced_counts(workload, 11)
    assert first == _traced_counts(workload, 11)
    assert any(first.values())
