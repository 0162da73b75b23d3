"""Persistent memo cache: JSON-lines file mirroring the in-memory tables.

Layout: a header line ``{"format": "hodgeint-cache-v1", ...}`` followed by one
record per integral::

    {"tag": "psi", "genus": 2, "exponents": [4], "value": "1/1152"}

Rationals are stored as their ``str``: ``"p/q"``, or ``"p"`` when q = 1.  A
header with an unknown format version makes the loader refuse the file
(returning 0 entries) so values are recomputed rather than misread; so does a
record off its family's closed form, after one warning on stderr.  Any other
malformed line makes it raise ValueError.  Writing re-exports the full tables
into a fresh temporary file in the same directory and renames it over the
target, so processes that share one cache file never see, or clobber, a
half-written one; the command line writes only after computing a value.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import tempfile
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

from . import hodge, store
from .combinat import family_key
from .errors import MAX_LAMBDA_GENUS, MAX_POINTS, MAX_PSI_GENUS

__all__ = ["FORMAT_VERSION", "ENV_CACHE_PATH", "load_cache", "save_cache"]

FORMAT_VERSION = "hodgeint-cache-v1"
ENV_CACHE_PATH = "HODGEINT_CACHE"


def load_cache(path: Union[str, Path]) -> int:
    """Preload table entries from a cache file; returns the number loaded.

    Missing files, version mismatches and a record off its closed form (see
    :func:`_closed_form`; one warning on stderr) load nothing, so the caller
    recomputes; a file of any other shape than the layout above raises
    ValueError naming the offending line.
    """
    path = Path(path)
    if not path.exists():
        return 0
    loaded = 0
    for lineno, tag, (g, ks), value in _records(path):
        want = _closed_form(tag, g, ks)
        if want is not None and value != want:
            bad = f"{tag} at genus {g}, exponents {list(ks)} is {value}, not {want}"
            warn = f"warning: cache {path}: line {lineno}: {bad}; the file is ignored"
            print(warn, file=sys.stderr)
            # none of the file's values stays (a memo entry dropped is recomputed)
            for _, done, key, _ in itertools.islice(_records(path), loaded):
                store.tables()[done].pop(key, None)
            return 0
        store.preload(tag, (g, ks), value)
        loaded += 1
    return loaded


def _records(path: Path) -> Iterator[Tuple[int, str, store.Key, Fraction]]:
    # (line number, tag, key, value) per record; none in an empty or other-version file
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.strip() or _parse_line(header, 1).get("format") != FORMAT_VERSION:
            return
        for lineno, line in enumerate(fh, start=2):
            if line.strip():
                yield (lineno, *_parse_record(_parse_line(line, lineno), lineno))


def _closed_form(tag: str, g: int, ks: Tuple[int, ...]) -> Optional[Fraction]:
    """The value a record must hold where its family has a closed form (the
    row's ``closed``: lambda_g, lambda_g lambda_{g-1}, psi at genus 0 or with
    one point), 0 off its stable range and grading.  None for the records that
    stay trusted: lambda_{g-1}, the other psi, and those beyond the command
    line's genus limit (psi's own for psi, the family without a --class
    letter) and insertion limit, which no command reads."""
    row = hodge.FAMILIES[tag]
    cap = MAX_LAMBDA_GENUS if row.letter else MAX_PSI_GENUS
    if row.closed is None or len(ks) > MAX_POINTS or g > cap:
        return None
    key = family_key(g, ks, row.grading, row.gmin, row.nmin)
    return Fraction(0) if key is None else row.closed(g, key)


def _parse_line(line: str, lineno: int) -> dict:
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: not JSON ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"line {lineno}: not a JSON object")
    return obj


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_record(rec: dict, lineno: int):
    """``(tag, key, value)`` of one record, or ValueError for any other shape."""
    missing = [f for f in ("tag", "genus", "exponents", "value") if f not in rec]
    if missing:
        raise ValueError(f"line {lineno}: record lacks {', '.join(missing)}")
    tag, genus, exps, value = rec["tag"], rec["genus"], rec["exponents"], rec["value"]
    if tag not in store.CACHED_TAGS:
        raise ValueError(f"line {lineno}: unknown cache tag {tag!r}")
    if not _is_int(genus) or not isinstance(exps, list) or not all(map(_is_int, exps)):
        raise ValueError(f"line {lineno}: genus and exponents must be integers")
    if not isinstance(value, str):
        raise ValueError(f"line {lineno}: value must be a \"p/q\" string")
    try:
        value = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"line {lineno}: bad rational {value!r}") from None
    return tag, (genus, tuple(sorted(exps, reverse=True))), value


def save_cache(path: Union[str, Path]) -> int:
    """Export every memoized entry; returns the number written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            now = datetime.now(timezone.utc).isoformat()
            header = {"format": FORMAT_VERSION, "created": now}
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for tag in store.CACHED_TAGS:
                for (g, ks), value in sorted(store.tables()[tag].items()):
                    rec = dict(tag=tag, genus=g, exponents=list(ks), value=str(value))
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return sum(len(store.tables()[tag]) for tag in store.CACHED_TAGS)
