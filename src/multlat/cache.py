"""Append-only JSON-lines store for counting results.

One file, one JSON object per line, an in-memory index on top. Entries are
keyed by (n, k, r, method, engine_version, bound_multiplier), so bumping
the engine version silently invalidates everything older: stale entries stay
in the file but can never be returned. A co-rank census count is only served
to a request under the bound multiplier it was taken with; a line without
that field reads as multiplier 1. Malformed lines (torn writes, manual
edits) are skipped with a warning instead of poisoning the run.
"""

from __future__ import annotations

import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from .enumeration import ENGINE_VERSION, CountRecord

CacheKey = tuple[int, int, int, str, str, int]


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
                    int(data["count"])
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
        return (int(data["n"]), int(data["k"]), int(data["r"]),
                str(data["method"]), str(data["engine_version"]),
                int(data.get("bound_multiplier", 1)))

    def get(self, n: int, k: int, r: int, method: str,
            engine_version: str = ENGINE_VERSION,
            bound_multiplier: int = 1) -> Optional[int]:
        data = self._index.get((n, k, r, method, engine_version,
                                bound_multiplier))
        return None if data is None else int(data["count"])

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
        key = (record.n, record.k, record.r, record.method,
               record.engine_version, record.bound_multiplier)
        old = self._index.get(key)
        if old is not None:
            if int(old["count"]) != record.count:
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
