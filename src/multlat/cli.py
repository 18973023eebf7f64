"""Command-line surface: counting tables, verification campaigns, exports.

Every subcommand writes data rows to stdout and everything else (progress,
wall-time footers, counterexamples, warnings) to stderr, so captured stdout
is byte-stable across --jobs settings and across cold/warm cache runs.
Exit codes: 0 success, 1 verification failure, 2 budget, usage, I/O or
cache-conflict error, 3 internal error (a self-check of the engines failed,
which is a bug, not a verdict on the formula). A subcommand takes only the
options it reads: all take --format, all but partitions --jobs and --budget,
all but partitions and series --cache. Any other option, a --jobs or
--budget below 1, an --r or --torsion range reaching below 1, and an --n or
--k range reaching below 0 are rejected while the arguments are parsed
(exit 2), before anything is written to stdout.

The counting engines (`enumeration`, and `partitions` for the partition
listing) are imported when the first cell has to be computed, not when this
module is: a count or count-corank run whose cells are all served from the
cache loads only the package root, this module and `cache`.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from functools import partial
from typing import Callable, Optional, Sequence, TextIO

from . import ENGINE_VERSION
from .cache import CacheConflict, CountCache, CountRecord


def _parse_range(text: str, least: int = 0) -> tuple[int, ...]:
    """'a..b' (inclusive) or a single integer, none of them below least."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected INT or LO..HI, got {text!r}") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    if lo < least:
        raise argparse.ArgumentTypeError(
            f"values must be at least {least}, got {text!r}")
    return tuple(range(lo, hi + 1))


# --r and --torsion: a torsion size is at least 1
_positive_range = partial(_parse_range, least=1)


def _positive(text: str) -> int:
    """A count of jobs or steps: an integer at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected INT, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _cell(value) -> str:
    return "-" if value is None else str(value)


def _row_writer(fmt: str, header: Sequence[str], widths: Sequence[int],
                stream: TextIO) -> Callable[[Sequence], None]:
    """Write the header, then return a function that writes one data row.

    A table row is its cells left-aligned in the given column widths; CSV
    has a header row; JSON is one object per row with sorted keys and no
    header. A caller that writes rows as it computes them flushes them.
    """
    csv_rows = csv.writer(stream, lineterminator="\n")

    def write(row: Sequence) -> None:
        if fmt == "table":
            stream.write("  ".join(_cell(c).ljust(w)
                                   for c, w in zip(row, widths)).rstrip()
                         + "\n")
        elif fmt == "csv":
            csv_rows.writerow(row)
        else:
            stream.write(
                json.dumps(dict(zip(header, row)), sort_keys=True) + "\n")

    if fmt != "json":
        write(header)
    return write


def _emit_rows(fmt: str, header: Sequence[str], rows: Sequence[Sequence],
               stream: TextIO) -> None:
    """All rows at once, each table column as wide as its widest cell."""
    widths = [max(len(_cell(c)) for c in col) for col in zip(header, *rows)]
    write = _row_writer(fmt, header, widths, stream)
    for row in rows:
        write(row)


_COUNT_HEADER = ("n", "k", "r", "method", "count", "status")


def _count(engine, n: int, k: int, r: int, method: str, args) -> int:
    """One count cell, computed by engine, the `enumeration` module."""
    run = {"jobs": args.jobs, "budget": args.budget}
    if method == "unital":
        return engine.count_unital(n, r, **run)
    if method == "formula":
        return engine.count_corank_formula(n, k, r, **run)
    if k == 0:
        return engine.count_full_rank(n, r, **run)
    return len(engine.enumerate_corank_oracle(n + k, k, r, **run))


def _count_cells(cells, args) -> int:
    """Shared count/count-corank loop over (n, k, r, method) cells; the
    engines are imported at the first cell the cache does not serve."""
    cache = CountCache(args.cache) if args.cache else None
    rows = []
    incomplete = 0
    t0 = time.monotonic()
    for n, k, r, method in cells:
        cached = cache.get(n, k, r, method) if cache is not None else None
        if cached is not None:
            rows.append((n, k, r, method, cached, "ok"))
            continue
        from . import enumeration
        try:
            value = _count(enumeration, n, k, r, method, args)
        except enumeration.SearchBudgetExceeded:
            incomplete += 1
            rows.append((n, k, r, method, None, "incomplete"))
            continue
        rows.append((n, k, r, method, value, "ok"))
        if cache is not None:
            cache.put(CountRecord(n, k, r, value, method, ENGINE_VERSION))
    _emit_rows(args.format or "table", _COUNT_HEADER, rows, sys.stdout)
    print(f"{len(rows)} cells, {incomplete} incomplete, "
          f"{time.monotonic() - t0:.2f}s", file=sys.stderr)
    return 2 if incomplete else 0


def _cmd_count(args) -> int:
    return _count_cells([(n, 0, r, args.method)
                         for n in args.n for r in args.r], args)


def _cmd_count_corank(args) -> int:
    k = args.corank
    if not 0 <= k <= args.ambient:
        raise ValueError("need 0 <= corank <= ambient")
    # co-rank 0 is plain full-rank counting whichever method was asked
    # for; recorded as 'oracle'
    method = "oracle" if k == 0 else args.method
    return _count_cells([(args.ambient - k, k, r, method)
                         for r in args.torsion], args)


_VERIFY_HEADER = ("n", "k", "r", "oracle_count", "formula_count",
                  "stirling_factor", "full_rank_count", "witnesses_checked",
                  "status")


def _cmd_verify(args) -> int:
    from . import enumeration

    # verification never trusts the cache; it only deposits fresh oracle
    # counts for later count runs
    cache = CountCache(args.cache) if args.cache else None
    # rows are written as each cell finishes, so table columns get a fixed
    # width and earlier lines never need realigning
    write = _row_writer(args.format or "table", _VERIFY_HEADER,
                        [max(len(h), 5) for h in _VERIFY_HEADER], sys.stdout)
    sys.stdout.flush()
    t0 = time.monotonic()
    cells = 0
    for n in args.n:
        for k in args.k:
            for r in args.r:
                report = enumeration.verify_corank_factorization(
                    n, k, r, jobs=args.jobs, budget=args.budget)
                cells += 1
                data = report.as_dict()
                write([data[h] for h in _VERIFY_HEADER])
                sys.stdout.flush()
                if cache is not None:
                    cache.put(CountRecord(
                        n, k, r, report.oracle_count, "oracle",
                        ENGINE_VERSION))
                if report.status != "pass":
                    found = enumeration.find_counterexample(
                        n, k, r, jobs=args.jobs, budget=args.budget)
                    if found is not None:
                        lattice, reason = found
                        print("counterexample: "
                              + json.dumps(lattice.as_dict(), sort_keys=True),
                              file=sys.stderr)
                        print(f"reason: {reason}", file=sys.stderr)
                    print(f"{cells} cells, FAILED at n={n} k={k} r={r}, "
                          f"{time.monotonic() - t0:.2f}s", file=sys.stderr)
                    return 1
    print(f"{cells} cells, all passed, {time.monotonic() - t0:.2f}s",
          file=sys.stderr)
    return 0


def _cmd_partitions(args) -> int:
    from . import partitions

    fmt = args.format or "table"
    if args.n < 1 or args.k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    maps = list(partitions.enumerate_ordered_maps(args.n, args.n + args.k))
    if args.as_maps:
        header = ("index", "map")
        rows = [(i, partitions.map_to_string(g)) for i, g in enumerate(maps)]
    else:
        header = ("index", "partition")
        rows = [
            (i, "".join(
                "{" + ",".join(str(e) for e in block) + "}"
                for block in partitions.map_to_partition(g).blocks))
            for i, g in enumerate(maps)
        ]
    _emit_rows(fmt, header, rows, sys.stdout)
    expected = partitions.stirling2(args.n + args.k + 1, args.n + 1)
    print(f"{len(rows)} rows, Stirling value {expected}", file=sys.stderr)
    if len(rows) != expected:
        print("partition count disagrees with the Stirling number",
              file=sys.stderr)
        return 1
    return 0


def _cmd_series(args) -> int:
    from . import enumeration

    fmt = args.format or "csv"
    if args.n < 1:
        raise ValueError("need n >= 1")
    if args.n > args.max_n:
        raise ValueError(
            f"n {args.n} exceeds the configured maximum {args.max_n}")
    if args.r_max < 1:
        raise ValueError("need r-max >= 1")
    fn = (enumeration.count_unital if args.family == "unital"
          else enumeration.count_full_rank)
    # opened before computing so a bad path fails at once
    stream = (open(args.out, "w", encoding="utf-8", newline="")
              if args.out else sys.stdout)
    rows = []
    running = 0
    truncated = False
    t0 = time.monotonic()
    try:
        for r in range(1, args.r_max + 1):
            try:
                value = fn(args.n, r, jobs=args.jobs, budget=args.budget)
            except enumeration.SearchBudgetExceeded:
                truncated = True
                break
            running += value
            rows.append((r, value, running))
        _emit_rows(fmt, ("r", "f", "N"), rows, stream)
        if truncated:
            if fmt == "json":
                stream.write(json.dumps({"truncated": True}) + "\n")
            else:
                stream.write("# truncated\n")
    finally:
        if args.out:
            stream.close()
    where = args.out if args.out else "stdout"
    print(f"{len(rows)} of {args.r_max} coefficients to {where}, "
          f"{time.monotonic() - t0:.2f}s", file=sys.stderr)
    return 2 if truncated else 0


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("table", "csv", "json"),
                     help="output format (default: table; series: csv)")
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--cache", metavar="PATH",
                       help="JSON-lines count cache file")
    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument("--jobs", type=_positive, default=1, metavar="N",
                        help="worker processes for enumeration (default 1)")
    engine.add_argument("--budget", type=_positive, metavar="STEPS",
                        help="steps per worker: leads, pivot-column "
                             "entries and off-pivot columns of the co-rank "
                             "scan, pivots and entries tried by the "
                             "full-rank engine")

    parser = argparse.ArgumentParser(
        prog="multlat",
        description="Count multiplicative sublattices of Z^n and verify the "
                    "co-rank factorization against a brute-force census.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[cache, engine, fmt],
                       help="full-rank counts by rank and index")
    p.add_argument("--n", type=_parse_range, required=True, metavar="RANGE")
    p.add_argument("--r", type=_positive_range, required=True,
                   metavar="RANGE")
    p.add_argument("--method", choices=("oracle", "unital"),
                   default="oracle",
                   help="oracle: all multiplicative sublattices; unital: "
                        "only those containing the all-ones vector")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("count-corank", parents=[cache, engine, fmt],
                       help="co-rank counts by ambient, co-rank and torsion")
    p.add_argument("--ambient", type=int, required=True)
    p.add_argument("--corank", type=int, required=True)
    p.add_argument("--torsion", type=_positive_range, required=True,
                   metavar="RANGE")
    p.add_argument("--method", choices=("oracle", "formula"),
                   default="oracle",
                   help="oracle: staircase census; formula: Stirling factor "
                        "times the full-rank count")
    p.set_defaults(func=_cmd_count_corank)

    p = sub.add_parser("verify", parents=[cache, engine, fmt],
                       help="pit the census against the closed formula")
    p.add_argument("--n", type=_parse_range, required=True, metavar="RANGE")
    p.add_argument("--k", type=_parse_range, required=True, metavar="RANGE")
    p.add_argument("--r", type=_positive_range, required=True,
                   metavar="RANGE")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("partitions", parents=[fmt],
                       help="list the ordered maps for one (n, k) cell")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--as-maps", action="store_true",
                   help="print assignment patterns instead of partitions")
    p.set_defaults(func=_cmd_partitions)

    p = sub.add_parser("series", parents=[engine, fmt],
                       help="export a coefficient series with partial sums")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r-max", type=int, required=True)
    p.add_argument("--family", choices=("unital", "full-rank"),
                   default="unital")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write to this file instead of stdout")
    p.add_argument("--max-n", type=int, default=4,
                   help="refuse ranks above this (default 4)")
    p.set_defaults(func=_cmd_series)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except CacheConflict as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # after the cache subclass, what is left comes from an engine, so
        # importing its module here loads nothing new
        from .enumeration import SearchBudgetExceeded
        if isinstance(exc, SearchBudgetExceeded):
            print(f"budget error: {exc}", file=sys.stderr)
            return 2
        # a failed self-check, e.g. "internal: engine produced a lattice twice"
        print(f"internal error: {str(exc).removeprefix('internal: ')}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
