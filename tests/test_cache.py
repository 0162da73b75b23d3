"""Persistent memo cache: round trips, version guard, preload accounting."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hodgeint import cache, combinat, hodge, mumford, psi, store
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
            "bernoulli": combinat.bernoulli.cache_info().currsize,
            "rising_numerator": combinat.rising_numerator.cache_info().currsize,
            "split_weights": combinat.split_weights.cache_info().currsize,
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
    assert store.computed_count() == 0
    assert compute() == first


def test_recursion_reads_a_preloaded_sub_key():
    # <tau_4>_2 is reached from <tau_7>_3 through a split
    table = store.tables()[store.TAG_PSI]
    store.preload(store.TAG_PSI, (2, (4,)), F(1, 1152))
    assert psi_integral(3, [7]) == F(1, 82944)
    assert store.computed_count() == len(table) - 1
    assert type(psi._psi_rec[2, (4,)]) is int


def test_recursion_recomputes_a_preloaded_value_off_the_scale():
    # N_2(4) = 2^7 * 9!! * <tau_4>_2 is an integer; for 1/2^40 it is not, so
    # that value is no psi number
    table = store.tables()[store.TAG_PSI]
    store.preload(store.TAG_PSI, (2, (4,)), F(1, 2**40))
    assert psi_integral(3, [7]) == F(1, 82944)
    assert store.computed_count() == len(table)
    assert psi_integral(2, [4]) == F(1, 1152)


def test_round_trip(tmp_path):
    path = tmp_path / "memo.jsonl"
    psi_integral(2, [4])
    n_written = cache.save_cache(path)
    assert n_written == len(
        [1 for tag in store.CACHED_TAGS for _ in store.tables()[tag]]
    )
    store.reset()
    assert cache.load_cache(path) == n_written
    assert store.lookup(store.TAG_PSI, (2, (4,))) == F(1, 1152)
    # preloaded values do not count as computed
    assert store.computed_count() == 0
    assert psi_integral(2, [4]) == F(1, 1152)
    assert store.computed_count() == 0


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
    assert store.lookup(store.TAG_PSI, (2, (4,))) is None


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

    # the save fails midway, at the record of a value it cannot write
    monkeypatch.setitem(store.tables()[store.TAG_PSI], (2, (4,)), Unwritable())
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
    # multi-point psi records, which the loader does not check
    path = tmp_path / "memo.jsonl"
    store.preload(store.TAG_PSI, (5, (13, 1)), F(3))
    store.preload(store.TAG_PSI, (6, (16, 1)), F(-7, 4))
    cache.save_cache(path)
    lines = path.read_text().splitlines()
    assert [json.loads(line)["value"] for line in lines[1:]] == ["3", "-7/4"]
    path.write_text("\n".join(lines).replace('"3"', '"5"') + "\n")
    store.reset()
    assert cache.load_cache(path) == 2
    assert store.tables()[store.TAG_PSI] == {(5, (13, 1)): F(5), (6, (16, 1)): F(-7, 4)}


def _write_records(path, *records):
    lines = [{"format": cache.FORMAT_VERSION}, *records]
    path.write_text("".join(json.dumps(r) + "\n" for r in lines))


@pytest.mark.parametrize(
    "tag, genus, exponents, value",
    [
        ("lambda_g", 2, [2, 1], "1/7"),  # 7/1920 by the multinomial form
        ("lambda_g_gm1", 3, [3, 2, 0, 0], "1/7"),  # through string steps
        ("lambda_g_gm1", 3, [2, 1], "0"),  # 0 on the grading
        ("psi", 2, [4], "1/7"),  # one point: 1/(24^g g!)
        ("psi", 0, [1, 0, 0, 0], "2"),  # genus 0: multinomial(n-3; K)
        ("psi", 1, [2], "1/7"),  # off the grading: 0
        ("psi", -1, [5], "1"),  # no genus -1: 0
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
    gg = str(hodge.lambda_g_gm1(3, [3, 2, 0, 0]))
    records = [
        {"tag": "lambda_g", "genus": 2, "exponents": [2, 1], "value": "7/1920"},
        {"tag": "lambda_g_gm1", "genus": 3, "exponents": [3, 2, 0, 0], "value": gg},
        {"tag": "psi", "genus": 0, "exponents": [1, 0, 0, 0], "value": "1"},
        {"tag": "psi", "genus": 2, "exponents": [4], "value": "1/1152"},
        # no closed form: loaded as they are
        {"tag": "psi", "genus": 2, "exponents": [3, 2], "value": "1/7"},
        {"tag": "lambda_gm1", "genus": 2, "exponents": [3], "value": "1/7"},
    ]
    store.reset()
    _write_records(path, *records)
    assert cache.load_cache(path) == len(records)
    assert store.computed_count() == 0
    assert store.lookup(store.TAG_LAMBDA_GM1, (2, (3,))) == F(1, 7)
