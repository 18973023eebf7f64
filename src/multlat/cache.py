"""Append-only JSON-lines store for counting results, and their record type.

One JSON object per line, with an in-memory index of the counts. Each
line records the engine version that wrote it, and only this version's
lines are indexed, keyed by (n, k, r, method), so a version bump
strands older lines. A line that `put` could not have written, one its
CountRecord rejects or that is torn, not UTF-8 or missing a field, is
skipped with a warning: a count served from here reaches stdout with no
engine run. The module imports no counting engine.
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

    No search bound is recorded, as none changes a count, nor the engine
    version, which `CountCache.put` stamps on its line. A record is
    validated on creation, by the one rule for what `put` writes and
    `_load` reads: n, k, r and count are ints (no bool) with n, k >= 0,
    r >= 1 and count >= 0, and a co-rank 0 record is never a formula's.
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
