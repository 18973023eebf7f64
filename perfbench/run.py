"""Census benchmark for multlat: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's src/, nothing is installed. Every pass runs in a fresh
interpreter (perfbench/worker.py). The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
print each metric by name with its unit, plus failed_frac and the seed.

Times are in seconds at a fixed reference speed, not raw seconds: the host
drifts by tens of percent within minutes, so each worker samples its own
speed with a reference loop and scales what it measures (perfbench/speed.py).
The untraced output also prints the raw pass times and the speed factor.

--trace 0: passes repeat until S seconds have gone by (at least one, and
at least MIN_PASSES). Each cell's time is its median over passes; wall_s is
the sum of these (the cells cover a pass) and max_cell_s the largest;
peak_rss_mb is the median over passes; setup_s is the median
of 5 to 11 set-up times (SETUP_SAMPLES).

--trace 1: one untraced pass and one pass with the span tracer installed
(perfbench/tracer.py); the metrics are the per-layer ones, from the traced
pass, plus trace.overhead_s, the traced wall time minus the untraced one.
The two passes run at the same time, one per core, except on cli, whose
traced pass ends with --jobs 2 runs (for shard.speedup) that need both cores.

--seed permutes the order of cells and pairs; no check depends on order.
Exit status: 0 when every check passed, 1 when one failed, 2 when the
package is missing or a pass could not run at all (no result is printed).
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from common import (EXPECTED, HERE, ROOT, kill_live_groups, package_present,
                    run_group)

WORKLOADS = ("campaign", "cli", "fullrank-series", "roundtrip")
# set-up times per run: at least the first number, and up to the second
# while the set-up probes have taken less than SETUP_PROBE_S
SETUP_SAMPLES = (5, 11)
SETUP_PROBE_S = 3.0
# passes per untraced run, at least: the slowest cell of cli and of
# fullrank-series is a single call of two to four seconds, too noisy alone
MIN_PASSES = {"cli": 3, "fullrank-series": 2}
# every run, with its set-up probes, ends well inside three minutes
TIME_LIMIT_S = 170.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("max_cell_s", "s"),
              ("peak_rss_mb", "MB"))

_TIMED_LAYERS = (
    "enumeration.decompose", "partitions.apply_map",
    "lattice.is_multiplicative", "lattice.torsion_size",
    "lattice.lattice_from_rows", "lattice.has_rigid_columns",
    "intlinalg.hermite_normal_form", "intlinalg.smith_normal_form",
    "intlinalg.solve_in_row_span",
)
PER_LAYER = (
    ("enumeration.corank_scan.self_s", "s"),
    ("enumeration.corank_scan.calls", "count"),
    ("enumeration.corank_scan.lattices", "count"),
    ("enumeration.full_rank.self_s", "s"),
    ("enumeration.full_rank.calls", "count"),
    ("enumeration.full_rank.lattices", "count"),
    ("enumeration.verify.formula_s", "s"),
    ("enumeration.verify.witness_s", "s"),
    *((f"{name}.{kind}", unit) for name in _TIMED_LAYERS
      for kind, unit in (("s", "s"), ("calls", "count"))),
    ("partitions.enumerate_ordered_maps.s", "s"),
    ("partitions.stirling2.calls", "count"),
    ("cache.load_s", "s"),
    ("cache.put.s", "s"),
    ("cache.put.calls", "count"),
    ("cache.get.hits", "count"),
    ("cache.get.misses", "count"),
    ("cli.startup_s", "s"),
    ("shard.speedup.n1", "ratio"),
    ("shard.speedup.n2", "ratio"),
    ("shard.speedup.n3", "ratio"),
    ("trace.overhead_s", "s"),
)


class PassFailed(Exception):
    """A worker died or printed no result; nothing can be measured."""


class Bench:
    def __init__(self, args, workdir: Path) -> None:
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.notes: list[str] = []
        self.lock = threading.Lock()

    def spawn(self, mode: str) -> dict:
        """One worker pass; adds set-up time and tallies its checks."""
        sub = Path(tempfile.mkdtemp(dir=self.workdir))
        argv = [sys.executable, str(HERE / "worker.py"), self.args.workload,
                "--seed", str(self.args.seed), "--mode", mode,
                "--workdir", str(sub), "--deadline", repr(self.deadline),
                "--expected", str(self.args.expected)]
        if self.args.reduced:
            argv.append("--reduced")
        t_spawn = time.monotonic()
        rc, out, err = run_group(argv, self.deadline - t_spawn)
        if rc is None:
            raise PassFailed(f"{mode} pass exhausted the {TIME_LIMIT_S:.0f} s "
                             f"budget of a run")
        lines = out.decode(errors="replace").strip().splitlines()
        try:
            res = json.loads(lines[-1]) if rc == 0 and lines else None
        except ValueError:
            res = None
        if res is None:
            tail = err.decode(errors="replace").strip().splitlines()[-3:]
            raise PassFailed(f"{mode} pass exited {rc} without a result: "
                             + " | ".join(tail))
        res["setup_s"] = (res["t_first"] - t_spawn) * res["setup_scale"]
        with self.lock:
            self.attempted += res.get("attempted", 0)
            self.failed += res.get("failed", 0)
            self.errors.extend(res.get("errors", []))
        return res

    def timed(self) -> dict:
        passes = []
        t0 = time.monotonic()
        while True:
            t_pass = time.monotonic()
            passes.append(self.spawn("run"))
            now = time.monotonic()
            # stop once S seconds are spent, or when one more pass and the
            # set-up probes might not fit in the run's time limit
            enough = (now - t0 >= self.args.seconds and len(passes)
                      >= MIN_PASSES.get(self.args.workload, 1))
            if enough or now + 2 * (now - t_pass) > self.deadline:
                break
        setups = [p["setup_s"] for p in passes]
        t_setup = time.monotonic()
        while len(setups) < SETUP_SAMPLES[0] or (
                len(setups) < SETUP_SAMPLES[1]
                and time.monotonic() - t_setup < SETUP_PROBE_S):
            setups.append(self.spawn("setup")["setup_s"])
        med = statistics.median
        cell_med = {cell: med(p["cell_s"][cell] for p in passes)
                    for cell in passes[0]["cell_s"]}
        self.notes = [f"passes {len(passes)}", f"setup samples {len(setups)}",
                      "unscaled wall s " + " ".join(
                          f"{p['raw_wall_s']:.3f}" for p in passes),
                      "host speed " + " ".join(
                          f"{p['scale']:.3f}" for p in passes)]
        return {
            "setup_s": med(setups),
            "wall_s": sum(cell_med.values()),
            "max_cell_s": max(cell_med.values()),
            "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
        }

    def traced(self) -> dict:
        if self.args.workload == "cli":
            # its traced pass ends with --jobs 2 runs, which need both cores
            plain = self.spawn("run")
            traced = self.spawn("trace")
        else:
            # single-threaded workloads: the two passes run side by side on
            # two cores, so host speed drift cancels out of the overhead and
            # a run stays well inside its time limit
            with ThreadPoolExecutor(2) as pool:
                plain_f = pool.submit(self.spawn, "run")
                traced_f = pool.submit(self.spawn, "trace")
                plain, traced = plain_f.result(), traced_f.result()
        agg = traced["trace"]
        spans, counters = agg["spans"], agg["counters"]

        def calls(name):
            return spans.get(name, [0, 0.0, 0.0])[0]

        def self_s(name):
            return spans.get(name, [0, 0.0, 0.0])[2]

        m = {
            "enumeration.corank_scan.self_s": self_s("enumeration.corank_scan"),
            "enumeration.corank_scan.calls": calls("enumeration.corank_scan"),
            "enumeration.full_rank.self_s": self_s("enumeration.full_rank"),
            "enumeration.full_rank.calls": calls("enumeration.full_rank"),
            "enumeration.verify.formula_s": agg["verify"].get("formula_s", 0.0),
            "enumeration.verify.witness_s": agg["verify"].get("witness_s", 0.0),
            "partitions.enumerate_ordered_maps.s":
                self_s("partitions.enumerate_ordered_maps"),
            "partitions.stirling2.calls": calls("partitions.stirling2"),
            "cache.load_s": self_s("cache.load"),
            "cache.put.s": self_s("cache.put"),
            "cache.put.calls": calls("cache.put"),
            "cli.startup_s": (statistics.median(traced["startup_s"])
                              if traced.get("startup_s") else 0.0),
            "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        }
        for name in _TIMED_LAYERS:
            m[f"{name}.s"] = self_s(name)
            m[f"{name}.calls"] = calls(name)
        # span times are raw; bring them to the reference speed with the
        # traced pass's mean scale (trace.overhead_s and cli.startup_s
        # already are)
        units = dict(PER_LAYER)
        for name in m:
            if units[name] == "s" and name not in ("trace.overhead_s",
                                                   "cli.startup_s"):
                m[name] *= traced["scale"]
        for name in ("enumeration.corank_scan.lattices",
                     "enumeration.full_rank.lattices",
                     "cache.get.hits", "cache.get.misses"):
            m[name] = counters.get(name, 0)
        # --jobs 1 over --jobs 2 wall time per verify block; 0 on workloads
        # that start no shard pool
        speedup = traced.get("shard_speedup", {})
        for i in range(3):
            m[f"shard.speedup.n{i + 1}"] = speedup.get(f"verify-{i}", 0.0)
        self.notes = [
            f"untraced wall_s {plain['wall_s']}",
            f"traced wall_s {traced['wall_s']}",
            f"spans recorded {sum(row[0] for row in spans.values())}",
            "spans inside forked shard workers (--jobs 2) are not captured; "
            "the parent's enumeration.corank_scan / enumeration.full_rank "
            "span around each pool covers them",
        ]
        return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--reduced", action="store_true",
                    help="small inputs, for perfbench/selftest.py")
    ap.add_argument("--expected", type=Path, default=EXPECTED,
                    help="directory of expected values (default: committed)")
    args = ap.parse_args(argv)
    if not package_present():
        print(f"perfbench: {ROOT / 'src' / 'multlat'} not found; run from a "
              f"checkout of the multlat repository", file=sys.stderr)
        return 2

    # on SIGTERM or SIGINT, kill the workers (each in its own group) too
    signal.signal(signal.SIGTERM, kill_live_groups)
    signal.signal(signal.SIGINT, kill_live_groups)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        bench = Bench(args, workdir)
        try:
            # first import compiles the package's bytecode; not a user cost
            bench.spawn("setup")
            metrics = bench.traced() if args.trace else bench.timed()
        except PassFailed as exc:
            print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = dict(PER_LAYER if args.trace else END_TO_END)
    failed_frac = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}  " + "  ".join(bench.notes))
    for name in units:
        print(f"{args.workload}  {name}  {metrics[name]}  {units[name]}")
    print(f"{args.workload}  failed_frac  {failed_frac}  1  "
          f"({bench.failed} of {bench.attempted} checks failed)")
    for line in bench.errors[:10]:
        print(f"  failed: {line}", file=sys.stderr)
    correct = bench.failed == 0 and bench.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
