"""The package runs on the standard library alone: no process imports sympy,
and importing it stays cheap: ``import hodgeint`` loads the psi core alone,
and the psi/lambda commands load none of the layers that test the core."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))"

# the layers that load on first use, and the CLI's suites and csv writer
_LAZY_MODULES = ["hodgeint.constraints", "hodgeint.mumford", "hodgeint.operators",
                 "hodgeint.verify", "csv"]
_LOADED_DEFERRED = f"print([m for m in {_LAZY_MODULES!r} if m in sys.modules])"

# the package's modules that `import hodgeint` loads, the psi core; the CLI
# loads the lambda layer too, through cache, so this list is not _LAZY_MODULES
_CORE = ["hodgeint", "hodgeint.combinat", "hodgeint.errors", "hodgeint.psi", "hodgeint.store"]
_LOADED_PACKAGE = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'hodgeint'))"

_CLI = (
    "import runpy, sys\n"
    "sys.argv = ['hodgeint', *{argv!r}]\n"
    "try:\n"
    "    runpy.run_module('hodgeint.cli', run_name='__main__')\n"
    "except SystemExit as exc:\n"
    "    print('exit', exc.code)\n"
)


def _run(code, cli_argv=None):
    """stdout of ``code`` in a fresh interpreter, run after the command
    ``python -m hodgeint.cli *cli_argv`` when that is given."""
    if cli_argv is not None:
        code = _CLI.format(argv=list(cli_argv)) + code
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
    out = _run(_LOADED, ["euler", "--dim", "2", "--genus", "3"])
    assert out.splitlines() == [
        "class = (1)*c1*c1*lam3*lam1 + (-1)*c1*lam3*lam2",
        "dim = 2",
        "genus = 3",
        "exit 0",
        "[]",
    ]


@pytest.mark.parametrize(
    "use, more",
    [
        ("", []),
        ("hodgeint.psi_integral(3, [4, 3, 2, 1])", []),
        ("hodgeint.lambda_g", ["hodgeint.hodge", "hodgeint.series1d"]),
        ("hodgeint.b_sequence", ["hodgeint.series1d"]),
        ("hodgeint.point_partition(4, 1)", ["hodgeint.phase_space"]),
    ],
    ids=["import", "psi_integral", "lambda_g", "b_sequence", "point_partition"],
)
def test_import_loads_the_psi_core_and_each_layer_on_first_use(use, more):
    # a psi value reads no other layer; a lambda name loads hodge and the
    # series it rests on, b_sequence that series alone (it reads only store,
    # and Bernoulli numbers of its own), and point_partition the truncated
    # series it returns
    out = _run(f"import sys, hodgeint\n{use}\n{_LOADED_PACKAGE}")
    assert out == f"{sorted(_CORE + more)}\n"


def test_a_command_that_writes_no_cache_loads_no_datetime(tmp_path):
    # save_cache alone stamps the header with the time
    if _run("import sys; print('datetime' in sys.modules)") == "True\n":
        pytest.skip("the interpreter loads datetime at startup")
    path = tmp_path / "memo.jsonl"
    *_, code = _run("", ["--cache", str(path), "psi", "--genus", "2", "--exponents", "4"]).splitlines()
    assert code == "exit 0"
    saved = path.read_bytes()
    argv = ["--cache", str(path), "lambda", "--class", "g", "--genus", "3", "--exponents", "4"]
    *_, value, code, loaded = _run("print('datetime' in sys.modules)", argv).splitlines()
    assert (value, code, loaded) == ("value = 31/967680", "exit 0", "False")
    assert path.read_bytes() == saved


def test_import_defers_the_testing_layers():
    assert _run(f"import sys, hodgeint; {_LOADED_DEFERRED}") == "[]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["psi", "--genus", "2", "--exponents", "4"],
        ["lambda", "--class", "gg", "--genus", "3", "--exponents", "2"],
        ["lambda", "--class", "gm2", "--genus", "3", "--exponents", "3"],
        ["--format", "json", "bseq", "--max-genus", "5"],
        ["cache-info"],
    ],
)
def test_core_commands_load_no_deferred_layer(argv):
    *_, code, loaded = _run(_LOADED_DEFERRED, argv).splitlines()
    assert (code, loaded) == ("exit 0", "[]")


@pytest.mark.parametrize(
    "argv",
    [
        ["euler", "--dim", "2", "--genus", "3"],
        ["gw0", "--target", "P1", "--genus", "2", "--insertions", "1:2"],
        ["gw0", "--target", "P2", "--genus", "3", "--insertions", "0:3"],
    ],
)
def test_euler_and_gw0_load_mumford_alone(argv):
    *_, code, loaded = _run(_LOADED_DEFERRED, argv).splitlines()
    assert (code, loaded) == ("exit 0", "['hodgeint.mumford']")


def test_csv_format_loads_csv_alone():
    argv = ["--format", "csv", "bseq", "--max-genus", "2"]
    *_, code, loaded = _run(_LOADED_DEFERRED, argv).splitlines()
    assert (code, loaded) == ("exit 0", "['csv']")


def test_deferred_table_is_the_rest_of_all():
    # in a fresh interpreter, the names of __all__ that import hodgeint has
    # not bound are exactly the keys of the name -> module table, and dir()
    # lists every name of __all__ before any is read
    code = (
        "import hodgeint\n"
        "unbound = [n for n in hodgeint.__all__ if n not in vars(hodgeint)]\n"
        "print(sorted(unbound) == sorted(hodgeint._DEFERRED))\n"
        "print(set(hodgeint.__all__) <= set(dir(hodgeint)))"
    )
    assert _run(code) == "True\nTrue\n"


def test_every_public_name_resolves_to_its_definition():
    import hodgeint

    for name in hodgeint.__all__:
        value = getattr(hodgeint, name)
        module = hodgeint._DEFERRED.get(name)
        if module is not None:
            assert value is getattr(importlib.import_module(f"hodgeint.{module}"), name)


def test_star_import_binds_every_public_name():
    code = (
        "from hodgeint import *\n"
        "import hodgeint\n"
        "print(all(globals()[n] is getattr(hodgeint, n) for n in hodgeint.__all__))"
    )
    assert _run(code) == "True\n"


def test_unknown_attribute_raises_attribute_error():
    import hodgeint

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        hodgeint.no_such_name


def test_no_sympy_import_in_sources():
    pattern = re.compile(r"^\s*(import|from)\s+sympy\b", re.M)
    for tree in ("src", "tests"):
        for path in (ROOT / tree).rglob("*.py"):
            assert not pattern.search(path.read_text(encoding="utf-8")), path
