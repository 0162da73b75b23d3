"""Command-line interface: subcommands, formats, exit codes."""

import json
import re

import pytest

from hodgeint import hodge, store
from hodgeint.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED, main
from hodgeint.errors import (
    MAX_BSEQ_GENUS,
    MAX_EULER_GENUS,
    MAX_LAMBDA_GENUS,
    MAX_POINTS,
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

    def test_gw0_surface_lambda_gm2(self, capsys):
        # 9 <tau_3 | l_3 l_1>_3 from the c1^2 l_3 l_1 term of the Euler
        # class; this input exited 3 while l_g l_{g-2} had no value at g >= 3
        code, out, err = run(
            capsys, "gw0", "--target", "P2", "--genus", "3", "--insertions", "0:3"
        )
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[-1] == "value = 41/161280"

    def test_lambda_gm2(self, capsys):
        # 1/9 of the P^2 value above, as c_1^2 = 9 h^2 there; this class
        # exited 2 with "invalid choice"
        argv = ["lambda", "--class", "gm2", "--genus", "3", "--exponents", "3"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        assert out == "class = gm2\ngenus = 3\nvalue = 41/1451520\n"

    @pytest.mark.parametrize("cls", ["g", "gg", "gm1", "gm2"])
    @pytest.mark.parametrize("genus,exponents", [("0", "0"), ("1", ""), ("0", "1,-1,0")])
    def test_lambda_unstable_input_is_a_domain_error(self, capsys, cls, genus, exponents):
        argv = ["lambda", "--class", cls, "--genus", genus, "--exponents", exponents]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith("error: ") and err.count("\n") == 1

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

    @pytest.mark.parametrize("suite,genus", [("cg", 0), ("mumford", 0), ("mumford", 1)])
    def test_run_without_a_check_fails(self, capsys, suite, genus):
        # these printed "0/0 checks passed" and exited 0
        code, out, _ = run(capsys, "verify", "--suite", suite, "--max-genus", str(genus))
        assert code == EXIT_VERIFY_FAILED
        assert out == "0/0 checks passed\n"

    # exit codes at --max-genus 0: table, mumford and cg start above genus 0
    # and test nothing, and annihilation's L_2 line tests 0 coefficients, so
    # those runs fail like any run that tests nothing
    _AT_GENUS_ZERO = {"table": 1, "bseq": 0, "closed-vs-recursion": 0,
                      "annihilation": 1, "mumford": 1, "euler": 0, "cg": 1}

    @pytest.mark.parametrize("suite", sorted(MAX_VERIFY_GENUS))
    def test_max_genus_zero(self, capsys, suite):
        # table exited 3 with "gmax must be >= 1"
        code, out, err = run(capsys, "verify", "--suite", suite, "--max-genus", "0")
        assert code == self._AT_GENUS_ZERO[suite]
        assert err == "" and "Traceback" not in out
        assert "gmax" not in out and "max_genus" not in out
        summary = re.fullmatch(r"(\d+)/(\d+) checks passed", out.splitlines()[-1])
        passed, total = map(int, summary.groups())
        assert (code == EXIT_OK) == (0 < passed == total)

    def test_string_dilaton_sweeps_entries_from_empty_tables(self, capsys):
        # the fixture has emptied every table; the suite used to pass its
        # eight lines over 0 entries each
        code, out, _ = run(capsys, "verify", "--suite", "string-dilaton")
        *lines, summary = out.splitlines()
        n = 2 * len(hodge.FAMILIES)  # a string and a dilaton line per family
        assert code == EXIT_OK and summary == f"{n}/{n} checks passed"
        swept = [int(re.search(r"\((\d+) entries\)", line).group(1)) for line in lines]
        assert len(swept) == n and min(swept) > 0, swept
        assert "[pass] dilaton identity over lambda_g_gm2 (" in out

    def test_string_dilaton_over_no_entry_fails(self, capsys, monkeypatch):
        for name, row in list(hodge.FAMILIES.items()):
            monkeypatch.setitem(hodge.FAMILIES, name, row._replace(seeds=()))
        code, out, _ = run(capsys, "verify", "--suite", "string-dilaton")
        n = 2 * len(hodge.FAMILIES)
        assert code == EXIT_VERIFY_FAILED
        assert out.count("[FAIL]") == n and out.endswith(f"0/{n} checks passed\n")

    def test_unknown_suite_is_a_usage_error(self, capsys):
        from hodgeint.verify import SUITES

        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "no-such-suite"])
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_USAGE
        assert "invalid choice: 'no-such-suite'" in err and "Traceback" not in err
        assert all(repr(name) in err for name in SUITES)

    def test_suite_choices_are_the_suites(self):
        # the parser lists the suites without importing hodgeint.verify
        from hodgeint import cli, verify

        assert cli._SUITES == tuple(sorted(verify.SUITES))

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

    @pytest.mark.parametrize("genus", ["0", "-1"])
    def test_euler_genus_below_one(self, capsys, genus):
        code, out, err = run(capsys, "euler", "--dim", "2", "--genus", genus)
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err == "error: --genus must be >= 1\n"

    @pytest.mark.parametrize("dim,genus", [("0", "2"), ("-1", "2"), ("0", "1")])
    def test_euler_dim_below_one(self, capsys, dim, genus):
        # at genus >= 2 this said "the class vanishes for r > 3"
        code, out, err = run(capsys, "euler", "--dim", dim, "--genus", genus)
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err == "error: r must be >= 1\n"

    @pytest.mark.parametrize("suite", [None] + sorted(MAX_VERIFY_GENUS))
    def test_negative_max_genus(self, capsys, suite):
        # verify --suite bseq ended in a traceback, and the other genus
        # suites printed what they found below genus 0
        argv = ["bseq"] if suite is None else ["verify", "--suite", suite]
        code, out, err = run(capsys, *argv, "--max-genus", "-1")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err == "error: --max-genus must be >= 0\n"

    def test_too_many_points(self, capsys):
        exponents = ",".join(["597"] + ["0"] * 599)
        code, out, err = run(capsys, "psi", "--genus", "0", "--exponents", exponents)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1 and "at most" in err

    @pytest.mark.parametrize("pairs", [MAX_POINTS + 1, 400, 1500])
    def test_gw0_too_many_points(self, capsys, pairs):
        # gw0 used to print a value up to a few hundred pairs and a
        # RecursionError traceback beyond
        insertions = ",".join(["0:1"] * pairs)
        code, out, err = run(
            capsys, "gw0", "--target", "P3", "--genus", "2", "--insertions", insertions
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: at most {MAX_POINTS} insertions are supported, got {pairs}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["psi", "--genus", str(MAX_PSI_GENUS + 1), "--exponents", "46"],
            ["psi", "--genus", "40", "--exponents", "118"],
            ["lambda", "--class", "c", "--genus", str(MAX_LAMBDA_GENUS + 1)],
            ["lambda", "--class", "g", "--genus", "1000", "--exponents", "1998"],
            ["bseq", "--max-genus", str(MAX_BSEQ_GENUS + 1)],
            ["bseq", "--max-genus", "1000000"],
            ["euler", "--dim", "3", "--genus", str(MAX_EULER_GENUS + 1)],
            ["gw0", "--target", "P3", "--genus", str(MAX_LAMBDA_GENUS + 1),
             "--insertions", "0:1"],
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

    def test_tampered_closed_form_record_is_recomputed(self, tmp_path, capsys):
        # printed "value = 1/7" with exit 0
        path = tmp_path / "memo.jsonl"
        path.write_text(self._HEADER + "\n" + json.dumps({**self._RECORD, "value": "1/7"}))
        argv = ["--cache", str(path), "psi", "--genus", "2", "--exponents", "4"]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK
        assert out == "genus = 2\nvalue = 1/1152\n"
        assert err.startswith(f"warning: cache {path}: line 2: ") and err.count("\n") == 1
        assert "1/7" not in path.read_text()  # saved again, from the recomputed tables

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

    def test_unreadable_or_unwritable_cache_path_is_a_domain_error(self, tmp_path, capsys):
        # a directory failed to load and a path under a file failed to save,
        # each with a traceback and exit 1
        argv = ["psi", "--genus", "2", "--exponents", "4"]
        code, out, err = run(capsys, "--cache", str(tmp_path), *argv)
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith(f"error: cache {tmp_path}: ") and err.count("\n") == 1
        blocker = tmp_path / "memo"
        blocker.write_text("")
        path = blocker / "sub.jsonl"
        store.reset()  # so that the query computes a value, which is saved
        code, out, err = run(capsys, "--cache", str(path), *argv)
        assert (code, out) == (EXIT_DOMAIN, "genus = 2\nvalue = 1/1152\n")
        assert err.startswith(f"error: cache {path}: ") and err.count("\n") == 1

    def test_commands_that_compute_nothing_leave_the_file_as_it_is(self, tmp_path, capsys):
        # every command rewrote the whole file, with a fresh header timestamp
        path = tmp_path / "memo.jsonl"
        query = ["--cache", str(path), "psi", "--genus", "2", "--exponents", "4"]
        store.reset()
        assert run(capsys, *query)[0] == EXIT_OK
        before = path.read_bytes()
        for argv, shown in [(query, "value = 1/1152"), (query[:2] + ["cache-info"], "psi = ")]:
            store.reset()
            code, out, _ = run(capsys, *argv)
            assert code == EXIT_OK and shown in out
            assert path.read_bytes() == before
        # a command that computed nothing writes no file where there was none
        empty = tmp_path / "empty.jsonl"
        assert run(capsys, "--cache", str(empty), "cache-info")[0] == EXIT_OK
        assert not empty.exists()
