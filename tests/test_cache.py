"""Persistent memo cache: round trips, version guard, preload accounting."""

import json
from fractions import Fraction

import pytest

from hodgeint import cache, combinat, hodge, mumford, store
from hodgeint.psi import psi_integral

F = Fraction


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
            "mumford_relations": mumford.mumford_relations.cache_info().currsize,
            "groebner": mumford._groebner.cache_info().currsize,
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


def test_append_then_load(tmp_path):
    path = tmp_path / "memo.jsonl"
    cache.append_entry(path, store.TAG_PSI, 2, (4,), F(1, 1152))
    cache.append_entry(path, store.TAG_PSI, 1, (1,), F(1, 24))
    assert cache.load_cache(path) == 2
    assert store.lookup(store.TAG_PSI, (1, (1,))) == F(1, 24)


def test_save_compacts_duplicates(tmp_path):
    path = tmp_path / "memo.jsonl"
    for _ in range(3):
        cache.append_entry(path, store.TAG_PSI, 1, (1,), F(1, 24))
    cache.load_cache(path)
    assert cache.save_cache(path) == 1


def test_rational_serialization():
    assert store.format_rational(F(3)) == "3"
    assert store.format_rational(F(-7, 4)) == "-7/4"
    assert store.parse_rational("-7/4") == F(-7, 4)
    assert store.parse_rational("5") == F(5)
