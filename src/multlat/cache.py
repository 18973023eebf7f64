"""Append-only JSON-lines store for counting results, and their record type.

One file, one JSON object per line, an in-memory index of the counts on
top. Each line records the engine version that wrote it, and only the
lines of this version are indexed, keyed by (n, k, r, method): bumping the
engine version silently invalidates everything older, whose lines stay in
the file but are never returned. That is how the lines of engine 0.2.0 and
earlier, which also recorded a census bound multiplier, are left behind.
Each line is read as the CountRecord it stores, so a line of any version
that `put` could not have written (a torn write, a manual edit, bytes that
are not UTF-8, a missing field, a count or key field that is not a JSON
integer or is out of range, an unknown method, a co-rank 0 formula
record) is skipped with a warning instead of poisoning the run: a count
served from here reaches stdout without any engine running.

The module imports nothing from the counting engines, so a command whose
counts all come from the cache never loads them.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import NamedTuple, Optional

from . import ENGINE_VERSION

CacheKey = tuple[int, int, int, str]


class _CountFields(NamedTuple):
    n: int
    k: int
    r: int
    count: int
    method: str


class CountRecord(_CountFields):
    """One counting result: method is 'oracle', 'formula' or 'unital'.

    No search bound is recorded: every pivot the co-rank census tries
    divides the torsion, so no bound changes a count. Nor is the engine
    version: `CountCache.put` stamps it on the line it writes. Records are
    immutable and validated on creation, by the one rule for the records
    `put` writes and the lines `_load` reads: n, k, r and count are
    integers (no float, no bool) with n >= 0, k >= 0, r >= 1 and
    count >= 0, and a co-rank 0 record is never a formula's.
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int, r: int, count: int,
                method: str) -> CountRecord:
        if method not in ("oracle", "formula", "unital"):
            raise ValueError(f"unknown method {method!r}")
        for value in (n, k, r, count):
            if type(value) is not int:
                raise ValueError(f"not an integer: {value!r}")
        if n < 0 or k < 0:
            raise ValueError(f"negative dimension n={n}, k={k}")
        if r < 1:
            raise ValueError("torsion size must be at least 1")
        if count < 0:
            raise ValueError(f"negative count {count}")
        if k == 0 and method == "formula":
            raise ValueError("full-rank records are counted directly, not by formula")
        return super().__new__(cls, n, k, r, count, method)


class CacheConflict(RuntimeError):
    """Raised when a new count disagrees with the stored one for its key."""


class CountCache:
    """Cache of CountRecord values backed by a single JSON-lines file."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._index: dict[CacheKey, int] = {}
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        with open(self.path, "rb") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    # a UnicodeDecodeError is a ValueError: the line alone
                    # is skipped
                    data = json.loads(line.decode("utf-8"))
                    record = CountRecord(data["n"], data["k"], data["r"],
                                         data["count"], data["method"])
                    version = str(data["engine_version"])
                    str(data["created_at"])
                except (ValueError, KeyError, TypeError) as exc:
                    print(
                        f"cache: skipping unreadable line {lineno} of "
                        f"{self.path}: {exc}",
                        file=sys.stderr)
                    continue
                # last entry wins on replay; put() never appends duplicates
                if version == ENGINE_VERSION:
                    self._index[(record.n, record.k, record.r,
                                 record.method)] = record.count

    def get(self, n: int, k: int, r: int, method: str) -> Optional[int]:
        """The count this engine version stored for the key, or None."""
        return self._index.get((n, k, r, method))

    def put(self, record: CountRecord) -> None:
        """Append one record. Existing keys are immutable: a matching entry
        is left alone, a conflicting count raises."""
        # imported here: a run served from the cache never writes
        from datetime import datetime, timezone

        key = (record.n, record.k, record.r, record.method)
        old = self._index.get(key)
        if old is not None:
            if old != record.count:
                raise CacheConflict(f"cache conflict for {key}: stored "
                                    f"{old}, new {record.count}")
            return
        line = json.dumps(
            {**record._asdict(), "engine_version": ENGINE_VERSION,
             "created_at": datetime.now(timezone.utc).isoformat()},
            sort_keys=True) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # the whole line goes out in one append, so a concurrent reader never
        # sees half of it; the fsync makes the line durable
        with open(self.path, "a+b") as fh:
            # a torn last line (no newline) must not swallow this record
            if fh.seek(0, os.SEEK_END):
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    line = "\n" + line
            fh.write(line.encode("utf-8"))
            fh.flush()
            os.fsync(fh.fileno())
        self._index[key] = record.count
