"""Persistent memo cache: JSON-lines file mirroring the in-memory tables.

Layout: a header line ``{"format": "hodgeint-cache-v1", ...}`` followed by one
record per integral::

    {"tag": "psi", "genus": 2, "exponents": [4], "value": "1/1152"}

Rationals are stored as their ``str``: ``"p/q"``, or ``"p"`` when q = 1.  A
header with an unknown format version makes the loader refuse the file
(returning 0 entries) so values are recomputed rather than misread; any other
malformed line makes it raise ValueError.  Writing re-exports the full tables into a fresh temporary file in
the same directory and renames it over the target, so processes that share
one cache file never see, or clobber, a half-written one.
"""

from __future__ import annotations

import json
import os
import tempfile
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Union

from . import store

__all__ = ["FORMAT_VERSION", "ENV_CACHE_PATH", "load_cache", "save_cache"]

FORMAT_VERSION = "hodgeint-cache-v1"
ENV_CACHE_PATH = "HODGEINT_CACHE"


def load_cache(path: Union[str, Path]) -> int:
    """Preload table entries from a cache file; returns the number loaded.

    Missing files and version mismatches load nothing (the caller recomputes);
    a file of any other shape than the layout above raises ValueError naming
    the offending line.
    """
    path = Path(path)
    if not path.exists():
        return 0
    loaded = 0
    with path.open("r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line.strip():
            return 0
        header = _parse_line(header_line, 1)
        if header.get("format") != FORMAT_VERSION:
            return 0
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            tag, key, value = _parse_record(_parse_line(line, lineno), lineno)
            store.preload(tag, key, value)
            loaded += 1
    return loaded


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
    written = 0
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(
                json.dumps(
                    {
                        "format": FORMAT_VERSION,
                        "created": datetime.now(timezone.utc).isoformat(),
                    },
                    sort_keys=True,
                )
                + "\n"
            )
            for tag in store.CACHED_TAGS:
                for (g, ks), value in sorted(store.tables()[tag].items()):
                    fh.write(
                        json.dumps(
                            {
                                "tag": tag,
                                "genus": g,
                                "exponents": list(ks),
                                "value": str(value),
                            },
                            sort_keys=True,
                        )
                        + "\n"
                    )
                    written += 1
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return written
