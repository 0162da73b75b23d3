"""The package runs on the standard library alone: no process imports sympy,
and importing it stays cheap."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))"


def _run(code):
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_sympy():
    assert _run(f"import sys, hodgeint; {_LOADED}") == "[]\n"


def test_import_loads_no_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize at import time
    code = "import hodgeint, sys; print('dataclasses' in sys.modules or 'inspect' in sys.modules)"
    assert _run(code) == "False\n"


def test_euler_command_loads_no_sympy():
    # python -m hodgeint.cli euler --dim 2 --genus 3, then list sympy modules
    out = _run(
        "import runpy, sys\n"
        "sys.argv = ['hodgeint', 'euler', '--dim', '2', '--genus', '3']\n"
        "try:\n"
        "    runpy.run_module('hodgeint.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    print('exit', exc.code)\n"
        + _LOADED
    )
    assert out.splitlines() == [
        "class = (1)*c1*c1*lam3*lam1 + (-1)*c1*lam3*lam2",
        "dim = 2",
        "genus = 3",
        "exit 0",
        "[]",
    ]


def test_no_sympy_import_in_sources():
    pattern = re.compile(r"^\s*(import|from)\s+sympy\b", re.M)
    for tree in ("src", "tests"):
        for path in (ROOT / tree).rglob("*.py"):
            assert not pattern.search(path.read_text(encoding="utf-8")), path
