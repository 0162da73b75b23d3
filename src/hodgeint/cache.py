"""Persistent memo cache: a JSON-lines file of the saved memos' values.

Layout: a header line ``{"format": "hodgeint-cache-v2", ...}`` followed by one
record per memo entry of :func:`store.tables`, psi's and lambda_{g-1}'s::

    {"tag": "psi", "genus": 2, "exponents": [4], "value": "1/1152"}

Rationals are stored as their ``str``: ``"p/q"``, or ``"p"`` when q = 1.  A
header with an unknown format version makes the loader refuse the file
(returning 0 entries) so values are recomputed rather than misread; so does a
record that no value of its family can be (see :func:`_checked_entry`), after
one warning on stderr.  Any other malformed line makes it raise ValueError.
Writing exports the full memos into a fresh temporary file in the same
directory and renames it over the target, so processes that share one cache
file never see, or clobber, a half-written one; the command line writes only
after its saved memos grew.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

from . import store
from .combinat import Value, family_key
from .errors import MAX_LAMBDA_GENUS, MAX_POINTS, MAX_PSI_GENUS
from .hodge import FAMILIES
from .psi import closed_form

__all__ = ["FORMAT_VERSION", "ENV_CACHE_PATH", "load_cache", "save_cache"]

FORMAT_VERSION = "hodgeint-cache-v2"
ENV_CACHE_PATH = "HODGEINT_CACHE"

# the largest genus the command line reads of each saved family
_MAX_GENUS = {store.TAG_PSI: MAX_PSI_GENUS, store.TAG_LAMBDA_GM1: MAX_LAMBDA_GENUS}


def load_cache(path: Union[str, Path]) -> int:
    """Insert a cache file's records into the saved memos; returns the number
    inserted.

    Every record is checked before any is inserted.  Missing files, version
    mismatches and a record that no value of its family can be (one warning
    on stderr) insert nothing, so the caller recomputes; a file of any other
    shape than the layout above raises ValueError naming the offending line.
    """
    path = Path(path)
    if not path.exists():
        return 0
    entries = []
    for lineno, tag, (g, ks), value in _records(path):
        try:
            entry = _checked_entry(tag, g, ks, value)
        except _NoValue as want:
            bad = f"{tag} at genus {g}, exponents {list(ks)} is {value}, not {want}"
            print(f"warning: cache {path}: line {lineno}: {bad}; the file is ignored",
                  file=sys.stderr)
            return 0
        if entry is not None:
            entries.append((store.tables()[tag], (g, ks), entry))
    for memo, key, entry in entries:
        memo[key] = entry
    return len(entries)


class _NoValue(Exception):
    """Raised with what a record's value must be, for a value its family
    cannot have there."""


def _checked_entry(tag: str, g: int, ks: Tuple[int, ...], value: Fraction) -> Optional[Value]:
    """The memo entry a record loads as, or None for one left out.

    A record of an integral that its family row makes 0 (off the grading,
    below the row's genus or insertion minimum, unstable or with a negative
    exponent) must hold 0 and is left out, as is one beyond the command line's
    genus and insertion limits, which no command reads.  Every other record
    loads as its family's memo entry, ``rec.entry`` of the row's reduction
    (see :func:`combinat.reduction`), and must be on that integer scale where
    the entries are integers, as psi's are.  A psi value at genus 0 and with
    one point must be the closed form.  Raises _NoValue otherwise.
    """
    if g > _MAX_GENUS[tag] or len(ks) > MAX_POINTS:
        return None
    row = FAMILIES[tag]
    key = family_key(g, ks, row.grading, row.gmin, row.nmin)
    if key is None:
        if value:
            raise _NoValue(0)
        return None
    want = closed_form(g, key) if tag == store.TAG_PSI else None
    if want is not None and value != want:
        raise _NoValue(want)
    entry = row.rec.entry(g, key, value)
    if entry is None:
        raise _NoValue(f"on {tag}'s integer scale")
    return entry


def _records(path: Path) -> Iterator[Tuple[int, str, store.Key, Fraction]]:
    # (line number, tag, key, value) per record; none in an empty or other-version file
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.strip() or _parse_line(header, 1).get("format") != FORMAT_VERSION:
            return
        for lineno, line in enumerate(fh, start=2):
            if line.strip():
                yield (lineno, *_parse_record(_parse_line(line, lineno), lineno))


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
    if tag not in store.tables():
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
    """Export every saved memo's entries as values (by each family's
    ``rec.value``); returns the number written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            now = datetime.now(timezone.utc).isoformat()
            header = {"format": FORMAT_VERSION, "created": now}
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for tag, memo in store.tables().items():
                # a record as the bytes of json.dumps(record, sort_keys=True)
                line = '{"exponents": [%s], "genus": %d, "tag": ' + json.dumps(tag)
                line += ', "value": "%s"}\n'
                value = FAMILIES[tag].rec.value
                for g, ks in sorted(memo):
                    fh.write(line % (", ".join(map(str, ks)), g, value(g, ks)))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return sum(map(len, store.tables().values()))
