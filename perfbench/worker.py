"""One pass of one workload, in a fresh interpreter.

    python perfbench/worker.py WORKLOAD --seed N --mode setup|run|trace
        --workdir DIR --deadline T [--reduced] [--expected DIR]

Set-up (importing multlat and building the workload's inputs) ends at the
first timed call; its monotonic time is reported as `t_first`, so the
parent, which noted the time just before spawning, gets the set-up time of a
fresh interpreter. `--mode setup` stops there. `run` then runs the workload,
checks every output against the committed expected values and prints one
JSON line. `trace` does the same with the span tracer installed on the
package before set-up.

Every time is reported at the reference speed (speed.py): a sampler started
before anything else times short reference bursts from a signal handler,
and each cell's time is scaled by the bursts around it. wall_s is the sum of
the cells, which cover the whole pass; `setup_scale` is the scale over
set-up, which the parent applies to the set-up time it measures.

A failed check is counted, never raised: a cell whose call raises counts as
failed with a one-line reason.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import sys
import time
from pathlib import Path
from typing import Optional

from common import (CAMPAIGN_ARGS, CAMPAIGN_CELLS, CORANK_ARGS, EXPECTED,
                    HERE, SRC, run_group)
from speed import SpeedSampler

clock = time.perf_counter


class Tally:
    """Checks attempted and failed, per-cell seconds at the reference speed
    (see speed.py), the first few errors."""

    def __init__(self, sampler: SpeedSampler) -> None:
        self.sampler = sampler
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.cell_s: dict[str, float] = {}
        self.extra: dict = {}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)

    def start(self) -> float:
        """Start of a cell: every cell starts from a collected heap, so the
        garbage of the cells before it, which depends on their order, does
        not weigh on it."""
        gc.collect()
        return clock()

    def cell(self, key: str, t0: float, raw: Optional[float] = None,
             scale: Optional[float] = None) -> None:
        """End of a cell started at t0: its raw time (default: until now)
        and that time at the reference speed (default scale: this
        process's own bursts around the cell)."""
        if raw is None:
            raw = clock() - t0
        if scale is None:
            scale = self.sampler.scale(t0, t0 + raw)
        self.cell_s[key] = raw * scale


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# campaign: verify_corank_factorization in-process, jobs=1, bounds 1 and 2


def campaign_setup(ctx, tally):
    bounds = (1,) if ctx.reduced else (1, 2)
    cells = [(n, k, r, b) for b in bounds for n, k, r in CAMPAIGN_CELLS
             if not ctx.reduced or n == 1]
    ctx.rng.shuffle(cells)
    return cells


def campaign_run(cells, ctx, tally):
    import multlat.enumeration as E
    want = ctx.expected["cells"]
    for n, k, r, b in cells:
        key = f"{n},{k},{r},{b}"
        t0 = tally.start()
        try:
            got = E.verify_corank_factorization(n, k, r, b).as_dict()
        except Exception as exc:  # a crashing cell is a failed cell
            got = {"error": _describe(exc)}
        tally.cell(key, t0)
        tally.check(got == want.get(key) and got.get("status") == "pass",
                    f"cell {key}: got {got}, expected {want.get(key)}")


# ---------------------------------------------------------------------------
# cli: `python -m multlat.cli` verify at --jobs 1 with a fresh cache, then
# count-corank served from that cache


def cli_setup(ctx, tally):
    import multlat.cli  # noqa: F401  (the import every CLI run pays)
    verify = [i for i in range(len(CAMPAIGN_ARGS)) if not ctx.reduced or i == 0]
    corank = [i for i in range(len(CORANK_ARGS)) if not ctx.reduced or i < 3]
    ctx.rng.shuffle(verify)
    ctx.rng.shuffle(corank)
    cache = str(ctx.workdir / "counts.jsonl")
    return verify, corank, cache


def _cli(ctx, tally, label, argv, expected_out, traced):
    """One CLI invocation through cli_shim.py, checked.

    Returns its start, raw wall seconds and scale: the child samples its
    own speed (speed.py) from before it imports the package, since bursts
    taken here, in a process that only waits, would not describe it. This
    process's sampler is paused meanwhile, leaving the CLI's core to it.
    """
    out_json = ctx.workdir / f"cli-{label}.json"
    cmd = [sys.executable, str(HERE / "cli_shim.py"), str(out_json),
           repr(time.monotonic()), "1" if traced else "0", *argv]
    t0 = tally.start()
    tally.sampler.pause()
    rc, out, err = run_group(cmd, ctx.deadline - time.monotonic(),
                             own_group=False)
    t1 = clock()
    tally.sampler.resume()
    if rc is None:
        why = "exhausted the run's time budget"
    elif rc != 0:
        why = f"exit {rc}: {err.decode(errors='replace').strip()[-300:]}"
    elif out.decode() != expected_out:
        why = "stdout differs from the committed --jobs 1 output"
    else:
        why = None
    tally.check(why is None, f"{label}: {why}")
    shim = json.loads(out_json.read_text()) if out_json.is_file() else {}
    if traced and "trace" in shim:
        tally.extra.setdefault("startup_s", []).append(
            shim["startup_s"] * shim["scale"])
        tally.extra.setdefault("traces", []).append(shim["trace"])
    # a child that died before writing its scale is already a failed check
    return t0, t1 - t0, shim.get("scale", 1.0)


def cli_run(state, ctx, tally):
    verify, corank, cache = state
    traced = ctx.mode == "trace"
    runs = ([(f"verify-{i}", ["verify", *CAMPAIGN_ARGS[i], "--jobs", "1",
                              "--cache", cache], ctx.expected["verify"][i])
             for i in verify]
            + [(f"count-corank-{i}", ["count-corank", *CORANK_ARGS[i],
                                      "--cache", cache],
                ctx.expected["count_corank"][i]) for i in corank])
    for label, argv, expected_out in runs:
        tally.cell(label, *_cli(ctx, tally, label, argv, expected_out, traced))


def cli_after_trace(state, ctx, tally):
    """Each verify block at --jobs 1 and at --jobs 2, back to back and
    untraced, for shard.speedup: the ratio of their raw wall times."""
    verify, _, _ = state
    speedup = tally.extra["shard_speedup"] = {}
    for i in sorted(verify):
        walls = [_cli(ctx, tally, f"verify-{i}-jobs{jobs}",
                      ["verify", *CAMPAIGN_ARGS[i], "--jobs", str(jobs)],
                      ctx.expected["verify"][i], False)[1]
                 for jobs in (1, 2)]
        speedup[f"verify-{i}"] = walls[0] / walls[1]


# ---------------------------------------------------------------------------
# fullrank-series: count_unital(5, r) == count_full_rank(4, r) for r <= 16,
# and count_full_rank(4, r) for 17 <= r <= 32


def series_setup(ctx, tally):
    top_unital, top_full = (8, 8) if ctx.reduced else (16, 32)
    cells = ([("unital", 5, r) for r in range(1, top_unital + 1)]
             + [("full_rank", 4, r) for r in range(1, top_full + 1)])
    ctx.rng.shuffle(cells)
    return cells


def series_run(cells, ctx, tally):
    import multlat.enumeration as E
    want = ctx.expected["full_rank_4"]
    got: dict = {}
    for family, n, r in cells:
        fn = E.count_unital if family == "unital" else E.count_full_rank
        t0 = tally.start()
        try:
            value = fn(n, r)
        except Exception as exc:  # a crashing cell is a failed cell
            value = _describe(exc)
        tally.cell(f"{family},{r}", t0)
        got[(family, r)] = value
        tally.check(value == want[r - 1],
                    f"{family}({n}, {r}) = {value}, expected {want[r - 1]}")
    # the unital-shift identity, checked directly between the two engines
    for family, _, r in cells:
        if family == "unital":
            tally.check(got[("unital", r)] == got[("full_rank", r)],
                        f"count_unital(5, {r}) != count_full_rank(4, {r})")


# ---------------------------------------------------------------------------
# roundtrip: every ordered map with n + k <= 5 against every full-rank core of
# index <= 10; apply_map, then decompose, then torsion


def roundtrip_setup(ctx, tally):
    import multlat.enumeration as E
    from multlat.lattice import Lattice
    top_total, top_index = (4, 4) if ctx.reduced else (5, 10)
    want = ctx.expected["cores"]
    cores = {0: [(1, Lattice(0, ()))]}
    for n in range(1, top_total + 1):
        cores[n] = []
        for r in range(1, top_index + 1):
            lats = E.enumerate_full_rank_multiplicative(n, r)
            tally.check(len(lats) == want[str(n)][r - 1],
                        f"{len(lats)} cores for n={n} r={r}, expected "
                        f"{want[str(n)][r - 1]}")
            cores[n].extend((r, lat) for lat in lats)
    blocks = [(n, k) for n in range(top_total + 1)
              for k in range(top_total + 1 - n)]
    ctx.rng.shuffle(blocks)
    return cores, blocks


def roundtrip_run(state, ctx, tally):
    import multlat.enumeration as E
    import multlat.lattice as L
    import multlat.partitions as P
    cores, blocks = state
    want_maps = ctx.expected["maps"]
    rng = ctx.rng
    for n, k in blocks:
        t0 = tally.start()
        maps = list(P.enumerate_ordered_maps(n, n + k))
        tally.check(len(maps) == want_maps[f"{n},{k}"],
                    f"{len(maps)} ordered maps for n={n} k={k}")
        pairs = [(g, r, core) for g in maps for r, core in cores[n]]
        rng.shuffle(pairs)
        for g, r, core in pairs:
            try:
                lat = P.apply_map(g, core)
                ok = (lat.ambient_dim == n + k and lat.rank == n
                      and E.decompose(lat) == (g, core)
                      and L.torsion_size(lat) == r)
                why = "round trip or torsion differs"
            except Exception as exc:  # a crashing pair is a failed pair
                ok, why = False, _describe(exc)
            tally.check(ok, f"n={n} k={k} r={r} map {g.assignment}: {why}")
        tally.cell(f"{n},{k}", t0)


# ---------------------------------------------------------------------------


WORKLOADS = {
    "campaign": ("campaign.json", campaign_setup, campaign_run),
    "cli": ("cli.json", cli_setup, cli_run),
    "fullrank-series": ("fullrank_series.json", series_setup, series_run),
    "roundtrip": ("roundtrip.json", roundtrip_setup, roundtrip_run),
}


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def main() -> int:
    t_start = clock()
    sampler = SpeedSampler().start()
    try:
        return run_pass(sampler, t_start)
    finally:
        sampler.stop()


def run_pass(sampler: SpeedSampler, t_start: float) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--deadline", type=float, required=True)
    ap.add_argument("--reduced", action="store_true")
    ap.add_argument("--expected", type=Path, default=EXPECTED)
    ctx = ap.parse_args()
    ctx.rng = random.Random(ctx.seed)

    sys.path.insert(0, str(SRC))
    import multlat  # noqa: F401
    tracer = None
    if ctx.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    filename, setup, run = WORKLOADS[ctx.workload]
    ctx.expected = json.loads((ctx.expected / filename).read_text())
    tally = Tally(sampler)
    state = setup(ctx, tally)
    t_first = time.monotonic()
    result: dict = {"t_first": t_first,
                    "setup_scale": sampler.scale(t_start, clock())}
    if ctx.mode != "setup":
        t0 = clock()
        run(state, ctx, tally)
        raw_wall = clock() - t0
        if tracer is not None:
            from tracer import merge
            agg = tracer.aggregate()
            for other in tally.extra.pop("traces", []):
                merge(agg, other)
            result["trace"] = agg
            if run is cli_run:
                cli_after_trace(state, ctx, tally)
        # wall_s: the cells cover the pass; raw_wall_s and scale are printed
        result.update(wall_s=sum(tally.cell_s.values()), raw_wall_s=raw_wall,
                      scale=sampler.scale(t0, t0 + raw_wall),
                      cell_s=tally.cell_s,
                      peak_rss_mb=peak_rss_mb(), attempted=tally.attempted,
                      failed=tally.failed, errors=tally.errors, **tally.extra)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
