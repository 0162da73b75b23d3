"""Command-line interface: subcommands, formats, exit codes."""

import json

import pytest

from hodgeint import store
from hodgeint.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, main
from hodgeint.errors import (
    MAX_BSEQ_GENUS,
    MAX_LAMBDA_GENUS,
    MAX_PSI_GENUS,
    MAX_VERIFY_GENUS,
)


@pytest.fixture(autouse=True)
def fresh_store():
    store.reset()
    yield
    store.reset()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQueries:
    def test_psi(self, capsys):
        code, out, _ = run(capsys, "psi", "--genus", "0", "--exponents", "0,0,0")
        assert code == EXIT_OK
        assert "value = 1" in out

    def test_psi_json(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "psi", "--genus", "2", "--exponents", "4"
        )
        assert code == EXIT_OK
        assert json.loads(out) == {"genus": 2, "value": "1/1152"}

    def test_lambda_c_constant(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "lambda", "--class", "c", "--genus", "3"
        )
        assert code == EXIT_OK
        assert json.loads(out)["value"] == "41/580608"

    def test_lambda_family(self, capsys):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "lambda",
            "--class",
            "g",
            "--genus",
            "2",
            "--exponents",
            "2",
        )
        assert json.loads(out)["value"] == "7/5760"

    def test_bseq_csv(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "bseq", "--max-genus", "2")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "b_0,b_1,b_2"
        assert lines[1] == "1,1/24,7/5760"

    def test_euler(self, capsys):
        code, out, _ = run(capsys, "euler", "--dim", "1", "--genus", "2")
        assert code == EXIT_OK
        assert "lam2" in out and "c1" in out

    def test_gw0(self, capsys):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "gw0",
            "--target",
            "P1",
            "--genus",
            "2",
            "--insertions",
            "1:2",
        )
        assert code == EXIT_OK
        assert json.loads(out)["value"] == "7/5760"

    def test_cache_info(self, capsys):
        code, out, _ = run(capsys, "cache-info")
        assert code == EXIT_OK
        assert "psi" in out


class TestVerify:
    def test_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "table")
        assert code == EXIT_OK
        assert "10/10 checks passed" in out
        assert "[pass]" in out

    def test_max_genus_forwarded(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bseq", "--max-genus", "4")
        assert code == EXIT_OK
        assert "5/5 checks passed" in out

    def test_max_genus_is_the_annihilation_genus_cap(self, capsys):
        argv = ["verify", "--suite", "annihilation", "--max-genus", "1"]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert "genus<=1" in out and "genus<=3" not in out
        assert "4/4 checks passed" in out

    @pytest.mark.parametrize("suite", ["commutators", "string-dilaton"])
    def test_max_genus_rejected_without_genus(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--max-genus", "1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1 and "--max-genus" in err


class TestFailures:
    def test_unstable_input(self, capsys):
        code, _, err = run(capsys, "psi", "--genus", "0", "--exponents", "0")
        assert code == EXIT_DOMAIN
        assert "unstable" in err

    def test_underdetermined(self, capsys):
        code, _, err = run(
            capsys, "gw0", "--target", "P2", "--genus", "3", "--insertions", "0:3"
        )
        assert code == EXIT_DOMAIN

    def test_too_many_points(self, capsys):
        exponents = ",".join(["597"] + ["0"] * 599)
        code, out, err = run(capsys, "psi", "--genus", "0", "--exponents", exponents)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1 and "at most" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["psi", "--genus", str(MAX_PSI_GENUS + 1), "--exponents", "46"],
            ["psi", "--genus", "40", "--exponents", "118"],
            ["lambda", "--class", "c", "--genus", str(MAX_LAMBDA_GENUS + 1)],
            ["lambda", "--class", "g", "--genus", "1000", "--exponents", "1998"],
            ["bseq", "--max-genus", str(MAX_BSEQ_GENUS + 1)],
            ["bseq", "--max-genus", "1000000"],
            ["verify", "--suite", "annihilation", "--max-genus", str(MAX_PSI_GENUS + 1)],
        ],
    )
    def test_genus_beyond_cap(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1 and "is at most" in err

    @pytest.mark.parametrize(
        "suite", ["table", "bseq", "closed-vs-recursion", "mumford", "euler", "cg"]
    )
    def test_verify_genus_beyond_suite_cap(self, capsys, suite):
        limit = MAX_VERIFY_GENUS[suite]
        argv = ["verify", "--suite", suite, "--max-genus", str(limit + 1)]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: --max-genus is at most {limit}, got {limit + 1}\n"

    def test_genus_at_cap(self, capsys):
        argv = ["lambda", "--class", "c", "--genus", str(MAX_LAMBDA_GENUS)]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK and f"genus = {MAX_LAMBDA_GENUS}" in out

    def test_bad_exponent_list(self, capsys):
        code, _, err = run(capsys, "psi", "--genus", "1", "--exponents", "x")
        assert code == EXIT_DOMAIN

    def test_missing_exponents_for_family(self, capsys):
        code, _, err = run(capsys, "lambda", "--class", "g", "--genus", "2")
        assert code == EXIT_DOMAIN

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus-subcommand"])
        assert exc.value.code == EXIT_USAGE


class TestCachePlumbing:
    def test_cache_file_written_and_reused(self, tmp_path, capsys):
        path = str(tmp_path / "memo.jsonl")
        code, _, _ = run(
            capsys, "--cache", path, "psi", "--genus", "2", "--exponents", "4"
        )
        assert code == EXIT_OK
        store.reset()
        code, out, _ = run(capsys, "--cache", path, "cache-info")
        assert code == EXIT_OK
        assert "computed_this_run = 0" in out

    _HEADER = json.dumps({"format": "hodgeint-cache-v1"})
    _RECORD = {"tag": "psi", "genus": 2, "exponents": [4], "value": "1/1152"}

    @pytest.mark.parametrize(
        "body",
        [
            "[1, 2]",  # header not a JSON object
            "{not json",  # header not JSON
            _HEADER + "\n" + json.dumps({"tag": "psi", "genus": 2, "value": "1"}),
            _HEADER + "\n" + json.dumps([_RECORD]),  # record not an object
            _HEADER + "\n" + json.dumps({**_RECORD, "tag": "bogus"}),
            _HEADER + "\n" + json.dumps({**_RECORD, "genus": "2"}),
            _HEADER + "\n" + json.dumps({**_RECORD, "exponents": 4}),
            _HEADER + "\n" + json.dumps({**_RECORD, "value": 0.5}),
            _HEADER + "\n" + json.dumps({**_RECORD, "value": "1/0"}),
        ],
        ids=[
            "header-array",
            "header-not-json",
            "missing-field",
            "record-array",
            "unknown-tag",
            "genus-string",
            "exponents-scalar",
            "value-float",
            "value-zero-denominator",
        ],
    )
    def test_malformed_cache_is_a_domain_error(self, tmp_path, capsys, body):
        path = tmp_path / "memo.jsonl"
        path.write_text(body + "\n")
        code, out, err = run(
            capsys, "--cache", str(path), "psi", "--genus", "2", "--exponents", "4"
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith(f"error: cache {path}: line ")
        assert err.count("\n") == 1
        assert path.read_text() == body + "\n"  # left as it was, not rewritten
