"""Append-only JSON-lines store for counting results, and their record type.

One file, one JSON object per line, an in-memory index on top. Entries are
keyed by (n, k, r, method, engine_version, bound_multiplier), so bumping
the engine version silently invalidates everything older: stale entries stay
in the file but can never be returned. A co-rank census count is only served
to a request under the bound multiplier it was taken with; a line without
that field reads as multiplier 1. Malformed lines (torn writes, manual
edits, a count or key field that is not a JSON integer, a negative count)
are skipped with a warning instead of poisoning the run: a count served
from here reaches stdout without any engine running.

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

CacheKey = tuple[int, int, int, str, str, int]


class _CountFields(NamedTuple):
    n: int
    k: int
    r: int
    count: int
    method: str
    engine_version: str
    bound_multiplier: int = 1


class CountRecord(_CountFields):
    """One counting result: method is 'oracle', 'formula' or 'unital'.

    bound_multiplier is the census bound a co-rank oracle count (k > 0) was
    taken under; the command line records 1 for every other count, which
    does not depend on it. Records are immutable and validated on creation.
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int, r: int, count: int, method: str,
                engine_version: str, bound_multiplier: int = 1) -> CountRecord:
        if method not in ("oracle", "formula", "unital"):
            raise ValueError(f"unknown method {method!r}")
        if r < 1:
            raise ValueError("torsion size must be at least 1")
        if count < 0:
            raise ValueError("count must be nonnegative")
        if k == 0 and method == "formula":
            raise ValueError("full-rank records are counted directly, not by formula")
        if bound_multiplier < 1:
            raise ValueError("bound multiplier must be at least 1")
        return super().__new__(cls, n, k, r, count, method, engine_version,
                               bound_multiplier)


class CacheConflict(RuntimeError):
    """Raised when a new count disagrees with the stored one for its key."""


class CountCache:
    """Cache of CountRecord values backed by a single JSON-lines file."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._index: dict[CacheKey, dict] = {}
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                    key = self._key_of(data)
                    str(data["created_at"])
                except (ValueError, KeyError, TypeError) as exc:
                    print(
                        f"cache: skipping unreadable line {lineno} of "
                        f"{self.path}: {exc}",
                        file=sys.stderr)
                    continue
                # last entry wins on replay; put() never appends duplicates
                self._index[key] = data

    @staticmethod
    def _key_of(data: dict) -> CacheKey:
        """The key of a stored line; ValueError unless n, k, r, count and
        bound_multiplier are JSON integers (no float, no bool) and the count
        is nonnegative."""
        n, k, r, count = data["n"], data["k"], data["r"], data["count"]
        bound = data.get("bound_multiplier", 1)
        for value in (n, k, r, count, bound):
            if type(value) is not int:
                raise ValueError(f"not an integer: {value!r}")
        if count < 0:
            raise ValueError(f"negative count {count}")
        return (n, k, r, str(data["method"]), str(data["engine_version"]),
                bound)

    def get(self, n: int, k: int, r: int, method: str,
            engine_version: str = ENGINE_VERSION,
            bound_multiplier: int = 1) -> Optional[int]:
        data = self._index.get((n, k, r, method, engine_version,
                                bound_multiplier))
        return None if data is None else data["count"]

    def created_at(self, n: int, k: int, r: int, method: str,
                   engine_version: str = ENGINE_VERSION,
                   bound_multiplier: int = 1) -> Optional[str]:
        """Timestamp of the stored entry; how invalidation is observed."""
        data = self._index.get((n, k, r, method, engine_version,
                                bound_multiplier))
        return None if data is None else str(data["created_at"])

    def put(self, record: CountRecord) -> None:
        """Append one record. Existing keys are immutable: a matching entry
        is left alone, a conflicting count raises."""
        # imported here: a run served from the cache never writes
        from datetime import datetime, timezone

        key = (record.n, record.k, record.r, record.method,
               record.engine_version, record.bound_multiplier)
        old = self._index.get(key)
        if old is not None:
            if old["count"] != record.count:
                raise CacheConflict(
                    f"cache conflict for {key}: stored {old['count']}, "
                    f"new {record.count}")
            return
        data = {
            "n": record.n,
            "k": record.k,
            "r": record.r,
            "method": record.method,
            "engine_version": record.engine_version,
            "bound_multiplier": record.bound_multiplier,
            "count": record.count,
            "created_at": datetime.now(timezone.utc).isoformat(),
        }
        line = json.dumps(data, sort_keys=True) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # a single buffered write + fsync keeps concurrent readers from ever
        # seeing half a line
        with open(self.path, "a+b") as fh:
            # a torn last line (no newline) must not swallow this record
            if fh.seek(0, os.SEEK_END):
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    line = "\n" + line
            fh.write(line.encode("utf-8"))
            fh.flush()
            os.fsync(fh.fileno())
        self._index[key] = data

    def __len__(self) -> int:
        return len(self._index)
