"""Persistent memo cache: round trips, version guard, preload accounting."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hodgeint import cache, combinat, hodge, mumford, store
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
            hodge.lambda_gm1(3, [4, 2]),
            mumford.euler_class(2, 3),
        )

    def sizes():
        return {
            "tables": sum(len(t) for t in store.tables().values()),
            "lambda_g_rec": len(hodge._lambda_g_rec),
            "lambda_gg_rec": len(hodge._lambda_gg_rec),
            "bernoulli": combinat.bernoulli.cache_info().currsize,
            "rising_poly": combinat._rising_poly.cache_info().currsize,
            "square_rules": mumford._square_rules.cache_info().currsize,
            "reduce": mumford.reduce_lambda_monomial.cache_info().currsize,
        }

    first = compute()
    assert all(sizes().values()), sizes()
    store.reset()
    assert not any(sizes().values()), sizes()
    assert store.computed_count() == 0
    assert compute() == first


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

    def broken(value):
        raise RuntimeError("disk full")

    monkeypatch.setattr(store, "format_rational", broken)
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


def test_rational_serialization():
    assert store.format_rational(F(3)) == "3"
    assert store.format_rational(F(-7, 4)) == "-7/4"
    assert store.parse_rational("-7/4") == F(-7, 4)
    assert store.parse_rational("5") == F(5)
