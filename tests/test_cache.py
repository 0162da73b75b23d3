"""Persistent memo cache: round trips, version guard, record checks."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hodgeint import cache, combinat, hodge, mumford, psi, series1d, store
from hodgeint.psi import psi_integral

F = Fraction
SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def fresh_store():
    store.reset()
    yield
    store.reset()


def test_reset_empties_every_memo():
    def compute():
        return (
            psi_integral(3, [7]),
            hodge.lambda_g(3, [4, 1, 1, 1]),
            hodge.lambda_g_solver(3, [3, 2, 1]),
            hodge.lambda_g_gm1_solver(3, [2, 1]),
            hodge.lambda_g_gm1(3, [4, 2, 0, 0, 0]),
            hodge.lambda_gm1(3, [4, 2]),
            hodge.FAMILIES["lambda_g_gm2"].strict(3, [3, 1]),
            mumford.euler_class(2, 3),
            mumford.degree0_gw(3, 2, [(0, 1)]),
        )

    def sizes():
        return {
            "tables": sum(len(t) for t in store.tables().values()),
            # every recursion's memo, so that a new one is covered here too
            **{f"reduction {i}": len(m) for i, m in enumerate(combinat.REDUCTION_MEMOS)},
            "b_constant": hodge.b_constant.cache_info().currsize,
            "gg_const": hodge.gg_const.cache_info().currsize,
            "bernoulli": series1d.bernoulli.cache_info().currsize,
            "rising_numerator": combinat.rising_numerator.cache_info().currsize,
            "split_weights": hodge.split_weights.cache_info().currsize,
            "square_rule": mumford._square_rule.cache_info().currsize,
            "reduce": mumford.reduce_lambda_monomial.cache_info().currsize,
        }

    first = compute()
    assert all(sizes().values()), sizes()
    # the recursions are keyed by (genus, key); psi, the solvers and the
    # lambda_g lambda_{g-1} closed form carry integer multiples of their values
    for memo in combinat.REDUCTION_MEMOS:
        assert all(type(g) is int and all(type(x) is int for x in key) for g, key in memo)
    integral = (psi._psi_rec, hodge._lg_rec.memo, hodge._gg_rec.memo, hodge._gg_closed.memo)
    for memo in integral:
        assert all(type(v) is int for v in memo.values())
    store.reset()
    assert not any(sizes().values()), sizes()
    assert compute() == first


def test_the_saved_memos_are_the_recursions_memos():
    # psi's values were kept twice, in the recursion's memo of N and in a
    # table of Fractions that the cache saved, and the two could disagree
    assert list(store.tables()) == ["psi", "lambda_gm1"]
    assert store.tables()["psi"] is psi._rec.memo is hodge.FAMILIES["psi"].rec.memo
    assert store.tables()["lambda_gm1"] is hodge._gm1.memo is hodge.FAMILIES["lambda_gm1"].rec.memo


def test_recursion_reads_a_preloaded_sub_key(tmp_path):
    # <tau_3 tau_2 tau_1>_2 = 4 <tau_3 tau_2>_2 by dilaton; the loaded record
    # (twice the true 29/5760, on psi's scale) is trusted and read
    path = tmp_path / "memo.jsonl"
    _write_records(path, {"tag": "psi", "genus": 2, "exponents": [3, 2], "value": "29/2880"})
    assert cache.load_cache(path) == 1
    assert type(psi._psi_rec[2, (3, 2)]) is int
    assert psi_integral(2, [3, 2, 1]) == 4 * F(29, 2880)


def test_recursion_recomputes_a_preloaded_value_off_the_scale(tmp_path, capsys):
    # N_2(3, 2) = 2^7 * 7!! * 5!! * <tau_3 tau_2>_2 is an integer; for 1/2^40 it
    # is not, so that value is no psi number: the file is ignored, and
    # <tau_7>_3, whose genus reduction reaches (3, 2), is recomputed
    path = tmp_path / "memo.jsonl"
    off = {"tag": "psi", "genus": 2, "exponents": [3, 2], "value": f"1/{2**40}"}
    _write_records(path, off)
    assert cache.load_cache(path) == 0
    assert "is 1/1099511627776, not on psi's integer scale" in capsys.readouterr().err
    assert psi_integral(3, [7]) == F(1, 82944)
    assert psi_integral(2, [3, 2]) == F(29, 5760)


def test_round_trip(tmp_path):
    path = tmp_path / "memo.jsonl"
    psi_integral(2, [4])
    hodge.lambda_gm1(2, [3, 1])
    saved = {tag: dict(memo) for tag, memo in store.tables().items()}
    n_written = cache.save_cache(path)
    lines = path.read_text().splitlines()
    assert n_written == sum(map(len, saved.values())) == len(lines) - 1
    # the save formats each record itself, as json.dumps(record, sort_keys=True) would
    assert all(line == json.dumps(json.loads(line), sort_keys=True) for line in lines[1:])
    store.reset()
    assert cache.load_cache(path) == n_written
    assert store.tables() == saved
    assert psi_integral(2, [4]) == F(1, 1152)
    assert store.tables() == saved  # nothing recomputed


# a cache file as the format's first writer saved it: psi at genus 0, with one
# point and with several points, and two lambda_{g-1} records; the round trip
# above compares a save only with its own reload, so this pins the records
GOLDEN_RECORDS = """\
{"exponents": [1, 1, 0, 0, 0], "genus": 0, "tag": "psi", "value": "2"}
{"exponents": [3, 2], "genus": 2, "tag": "psi", "value": "29/5760"}
{"exponents": [4], "genus": 2, "tag": "psi", "value": "1/1152"}
{"exponents": [5, 2, 2], "genus": 3, "tag": "psi", "value": "17/5760"}
{"exponents": [3], "genus": 2, "tag": "lambda_gm1", "value": "1/480"}
{"exponents": [4, 2], "genus": 3, "tag": "lambda_gm1", "value": "2329/2903040"}
"""
GOLDEN = ('{"created": "2026-10-20T21:27:46.471313+00:00", "format": "hodgeint-cache-v2"}\n'
          + GOLDEN_RECORDS)


def test_a_golden_file_loads_and_saves_the_same_records(tmp_path, capsys):
    path = tmp_path / "golden.jsonl"
    path.write_text(GOLDEN)
    assert cache.load_cache(path) == 6
    assert capsys.readouterr().err == ""
    # psi loads as N = 2^{D(g)} prod (2k+1)!! value, D(0) = 0, D(g) = 4g - 1:
    # 9 * 2, 2^7 * 7!! 5!! * 29/5760, 2^7 * 9!! / 1152, 2^11 * 11!! (5!!)^2 * 17/5760
    want_psi = {(0, (1, 1, 0, 0, 0)): 18, (2, (3, 2)): 1015, (2, (4,)): 105,
                (3, (5, 2, 2)): 14137200}
    assert store.tables()["psi"] == want_psi
    assert all(type(n) is int for n in store.tables()["psi"].values())
    # lambda_{g-1} loads as the values
    assert store.tables()["lambda_gm1"] == {(2, (3,)): F(1, 480), (3, (4, 2)): F(2329, 2903040)}
    saved = tmp_path / "saved.jsonl"
    assert cache.save_cache(saved) == 6
    assert saved.read_text().split("\n", 1)[1] == GOLDEN_RECORDS


def test_header_format(tmp_path):
    path = tmp_path / "memo.jsonl"
    psi_integral(1, [1])
    cache.save_cache(path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["format"] == cache.FORMAT_VERSION
    for line in lines[1:]:
        rec = json.loads(line)
        assert set(rec) == {"tag", "genus", "exponents", "value"}


def test_version_mismatch_loads_nothing(tmp_path):
    path = tmp_path / "memo.jsonl"
    path.write_text(
        json.dumps({"format": "hodgeint-cache-v999"})
        + "\n"
        + json.dumps({"tag": "psi", "genus": 2, "exponents": [4], "value": "1/7"})
        + "\n"
    )
    assert cache.load_cache(path) == 0
    assert not any(store.tables().values())


def test_missing_file(tmp_path):
    assert cache.load_cache(tmp_path / "absent.jsonl") == 0


def test_unknown_tag_rejected(tmp_path):
    path = tmp_path / "memo.jsonl"
    path.write_text(
        json.dumps({"format": cache.FORMAT_VERSION})
        + "\n"
        + json.dumps({"tag": "bogus", "genus": 2, "exponents": [], "value": "1"})
        + "\n"
    )
    with pytest.raises(ValueError):
        cache.load_cache(path)


def test_save_compacts_duplicates(tmp_path):
    path = tmp_path / "memo.jsonl"
    record = {"tag": store.TAG_PSI, "genus": 1, "exponents": [1], "value": "1/24"}
    path.write_text(
        "\n".join(json.dumps(r) for r in [{"format": cache.FORMAT_VERSION}] + [record] * 3)
        + "\n"
    )
    assert cache.load_cache(path) == 3
    assert cache.save_cache(path) == 1


def test_failed_save_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "memo.jsonl"
    psi_integral(2, [4])
    cache.save_cache(path)
    before = path.read_text()

    class Unwritable:
        def __str__(self):
            raise RuntimeError("disk full")

    # the save fails midway, at the record of a value it cannot write (psi's
    # records come first, and the lambda_{g-1} memo holds values)
    hodge.lambda_gm1(2, [3])
    monkeypatch.setitem(store.tables()[store.TAG_LAMBDA_GM1], (2, (3,)), Unwritable())
    with pytest.raises(RuntimeError):
        cache.save_cache(path)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert path.read_text() == before


_SAVER = """
import sys
from hodgeint import cache
from hodgeint.psi import psi_integral

psi_integral(int(sys.argv[2]), [3 * int(sys.argv[2]) - 2])
for _ in range(100):
    cache.save_cache(sys.argv[1])
"""


def test_concurrent_saves_leave_a_loadable_file(tmp_path):
    # more saving processes than a small CI host has cores
    path = tmp_path / "memo.jsonl"
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    procs = [
        subprocess.Popen([sys.executable, "-c", _SAVER, str(path), str(g)], env=env)
        for g in (2, 3, 4, 5)
    ]
    assert [p.wait(timeout=120) for p in procs] == [0] * 4
    assert cache.load_cache(path) > 0
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_rational_serialization(tmp_path):
    # "p/q", with the "/q" left out when q = 1, both ways through the file;
    # multi-point psi records, which the loader does not check beyond the scale
    path = tmp_path / "memo.jsonl"
    _write_records(
        path,
        {"tag": "psi", "genus": 5, "exponents": [13, 1], "value": "3"},
        {"tag": "psi", "genus": 6, "exponents": [16, 1], "value": "-7/4"},
    )
    assert cache.load_cache(path) == 2
    cache.save_cache(path)
    lines = path.read_text().splitlines()
    assert [json.loads(line)["value"] for line in lines[1:]] == ["3", "-7/4"]
    path.write_text("\n".join(lines).replace('"3"', '"5"') + "\n")
    store.reset()
    assert cache.load_cache(path) == 2
    assert psi_integral(5, [13, 1]) == 5 and psi_integral(6, [16, 1]) == F(-7, 4)


def _write_records(path, *records):
    lines = [{"format": cache.FORMAT_VERSION}, *records]
    path.write_text("".join(json.dumps(r) + "\n" for r in lines))


@pytest.mark.parametrize(
    "tag, genus, exponents, value",
    [
        ("psi", 3, [6, 2], "1/49"),  # off the scale 2^11 13!! 5!!, which 7 divides once
        ("psi", 2, [2, 2, 2], "1/7"),  # off the scale 2^7 (5!!)^3
        ("psi", 2, [5, -1], "1"),  # a negative exponent: 0
        ("psi", 2, [4], "1/7"),  # one point: 1/(24^g g!)
        ("psi", 0, [1, 0, 0, 0], "2"),  # genus 0: multinomial(n-3; K)
        ("psi", 1, [2], "1/7"),  # off the grading: 0
        ("psi", -1, [5], "1"),  # no genus -1: 0
        # lambda_{g-1} records pass their row's gate too: 0 at a negative
        # exponent, below the row's genus 1, off its grading
        ("lambda_gm1", 2, [-3], "1"),
        ("lambda_gm1", 0, [1, 0, 0], "1"),
        ("lambda_gm1", 2, [1, 1, 1, 1], "1"),
    ],
)
def test_record_off_its_closed_form_voids_the_file(
    tmp_path, capsys, tag, genus, exponents, value
):
    path = tmp_path / "memo.jsonl"
    good = {"tag": "psi", "genus": 1, "exponents": [1], "value": "1/24"}
    bad = {"tag": tag, "genus": genus, "exponents": exponents, "value": value}
    _write_records(path, good, bad)
    assert cache.load_cache(path) == 0
    assert not any(store.tables().values())
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("; the file is ignored\n")
    assert f"line 3: {tag} at genus {genus}, exponents {exponents} is {value}, not " in err


def test_closed_form_records_load_and_the_rest_stay_trusted(tmp_path):
    path = tmp_path / "memo.jsonl"
    records = [
        {"tag": "psi", "genus": 0, "exponents": [1, 0, 0, 0], "value": "1"},
        {"tag": "psi", "genus": 2, "exponents": [4], "value": "1/1152"},
        # no closed form: loaded as they are (1/7 is on psi's scale here)
        {"tag": "psi", "genus": 2, "exponents": [3, 2], "value": "1/7"},
        {"tag": "lambda_gm1", "genus": 2, "exponents": [3], "value": "1/7"},
    ]
    _write_records(path, *records)
    assert cache.load_cache(path) == len(records)
    assert psi_integral(2, [3, 2]) == hodge.lambda_gm1(2, [3]) == F(1, 7)
    # a zero integral holding 0, and a record beyond the genus limit, which
    # no command reads, stay out of the memo
    store.reset()
    zero = {"tag": "psi", "genus": 2, "exponents": [4, 2], "value": "0"}  # off the grading
    beyond = {"tag": "psi", "genus": 10**12, "exponents": [3 * 10**12 - 2], "value": "1"}
    _write_records(path, zero, beyond)
    assert cache.load_cache(path) == 0
    assert not any(store.tables().values())


def test_lambda_gm1_records_of_zero_integrals_and_beyond_the_limit_stay_out(tmp_path):
    # loaded into the memo, and saved again on every write, before the
    # lambda_{g-1} records passed their row's gate
    path = tmp_path / "memo.jsonl"
    records = [
        {"tag": "lambda_gm1", "genus": 2, "exponents": [1, 1, 1, 1], "value": "0"},
        {"tag": "lambda_gm1", "genus": 1, "exponents": [], "value": "0"},
        {"tag": "lambda_gm1", "genus": 51, "exponents": [101], "value": "1"},
        {"tag": "lambda_gm1", "genus": 2, "exponents": [3], "value": "1/480"},
    ]
    _write_records(path, *records)
    assert cache.load_cache(path) == 1
    assert store.tables()["lambda_gm1"] == {(2, (3,)): F(1, 480)}
