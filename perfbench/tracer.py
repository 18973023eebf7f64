"""Span tracer installed on the multlat package from outside it.

Each traced function is replaced, in every multlat module namespace that
refers to it (and on its class, for methods), by a wrapper that records one
span: name, start, end and the index of the enclosing span. Spans live in
flat arrays, 24 bytes each, so a traced pass of a few hundred thousand calls
stays small. `aggregate` turns them into per-name call counts, total time and
self time (duration minus the time covered by child spans).

Spans recorded inside forked shard workers stay in the worker's copy of the
arrays and are lost; the parent's span around the pool covers their time.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

MODULES = ("multlat", "multlat.enumeration", "multlat.lattice",
           "multlat.partitions", "multlat.intlinalg", "multlat.cache",
           "multlat.cli")

# (span name, defining module, attribute); "Class.method" patches the class
TARGETS = (
    ("enumeration.verify", "multlat.enumeration", "verify_corank_factorization"),
    ("enumeration.corank_scan", "multlat.enumeration", "enumerate_corank_oracle"),
    ("enumeration.full_rank", "multlat.enumeration",
     "enumerate_full_rank_multiplicative"),
    ("enumeration.count_full_rank", "multlat.enumeration", "count_full_rank"),
    ("enumeration.count_unital", "multlat.enumeration", "count_unital"),
    ("enumeration.decompose", "multlat.enumeration", "decompose"),
    ("partitions.apply_map", "multlat.partitions", "apply_map"),
    ("partitions.enumerate_ordered_maps", "multlat.partitions",
     "enumerate_ordered_maps"),
    ("partitions.stirling2", "multlat.partitions", "stirling2"),
    ("lattice.is_multiplicative", "multlat.lattice", "is_multiplicative"),
    ("lattice.torsion_size", "multlat.lattice", "torsion_size"),
    ("lattice.lattice_from_rows", "multlat.lattice", "lattice_from_rows"),
    ("lattice.has_rigid_columns", "multlat.lattice", "has_rigid_columns"),
    ("intlinalg.hermite_normal_form", "multlat.intlinalg", "hermite_normal_form"),
    ("intlinalg.smith_normal_form", "multlat.intlinalg", "smith_normal_form"),
    ("intlinalg.solve_in_row_span", "multlat.intlinalg", "solve_in_row_span"),
    ("cache.load", "multlat.cache", "CountCache.__init__"),
    ("cache.put", "multlat.cache", "CountCache.put"),
    ("cache.get", "multlat.cache", "CountCache.get"),
)


def _count_lattices(name):
    def count(counters, result):
        counters[name] = counters.get(name, 0) + len(result)
    return count


def _count_cache_get(counters, result):
    key = "cache.get.misses" if result is None else "cache.get.hits"
    counters[key] = counters.get(key, 0) + 1


COUNTERS = {
    "enumeration.corank_scan": _count_lattices("enumeration.corank_scan.lattices"),
    "enumeration.full_rank": _count_lattices("enumeration.full_rank.lattices"),
    "cache.get": _count_cache_get,
}


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn, count=None):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end = (self.name_of, self.parent,
                                       self.start, self.end)
        stack, counters, clock = self._stack, self.counters, time.perf_counter
        # a generator is drained inside the span so the span covers the
        # enumeration rather than the creation of the generator object
        call = ((lambda *a, **k: iter(list(fn(*a, **k))))
                if inspect.isgeneratorfunction(fn) else fn)

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = call(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                count(counters, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target where the package's modules can see it."""
        modules = [importlib.import_module(m) for m in MODULES]
        for name, modname, attr in TARGETS:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth),
                                             COUNTERS.get(name)))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, COUNTERS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def aggregate(self) -> dict:
        """Per-name [calls, total_s, self_s], counters and the verify split.

        Every number is a sum, so aggregates of several processes merge by
        addition (see `merge`).
        """
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        parent = self.parent
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        spans: dict[str, list] = {}
        for i in range(count):
            row = spans.setdefault(self.names[self.name_of[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        # verify = scan + formula (Stirling factor, full-rank count) + the
        # per-witness checks, which are what is left of the verify span
        verify_ids = {i for i, n in enumerate(self.names)
                      if n == "enumeration.verify"}
        formula_ids = {i for i, n in enumerate(self.names)
                       if n in ("partitions.stirling2",
                                "enumeration.count_full_rank")}
        scan_ids = {i for i, n in enumerate(self.names)
                    if n == "enumeration.corank_scan"}
        formula = witness = 0.0
        for i in range(count):
            nid = self.name_of[i]
            if nid in verify_ids:
                witness += dur[i]
                continue
            p = parent[i]
            if p < 0 or self.name_of[p] not in verify_ids:
                continue
            if nid in formula_ids:
                formula += dur[i]
                witness -= dur[i]
            elif nid in scan_ids:
                witness -= dur[i]
        return {"spans": spans, "counters": dict(self.counters),
                "verify": {"formula_s": formula, "witness_s": witness}}


def merge(into: dict, other: dict) -> dict:
    """Add one aggregate into another (both as returned by `aggregate`)."""
    for name, row in other["spans"].items():
        acc = into["spans"].setdefault(name, [0, 0.0, 0.0])
        for i in range(3):
            acc[i] += row[i]
    for name, value in other["counters"].items():
        into["counters"][name] = into["counters"].get(name, 0) + value
    for name, value in other["verify"].items():
        into["verify"][name] = into["verify"].get(name, 0.0) + value
    return into
