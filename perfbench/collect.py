"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py [--workloads A,B] [--seeds 1..10]
                                 [--trace 0|1] [--out FILE]

Runs BENCHMARK.json's command once per workload and seed, one run at a
time, and reports for each metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the distance
between the quartiles as a share of the median. An end-to-end spread at or
above a third of the metric's bound is flagged; setup_s is exempt, since
only its median is compared. --out writes every run's values, its notes
line from run.py and the summary as JSON. Exits 1 if a run failed or a spread was flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import ROOT


def seed_range(text):
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1..10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary, runs, notes, bad = {}, {}, {}, 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in args.seeds:
            argv = [*spec["command"], "--workload", workload, "--seed",
                    str(seed), "--seconds", str(spec["run_seconds"]),
                    "--trace", str(args.trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if proc.returncode == 0 and lines \
                else None
            if res is None or not res["correct"]:
                bad += 1
                print(f"{workload} seed {seed}: FAILED (exit "
                      f"{proc.returncode}) {proc.stderr.strip()[-500:]}")
                continue
            # run.py's first line: passes, raw pass times, speed factors
            notes.setdefault(workload, []).append(f"seed {seed}: {lines[0]}")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()),
                flush=True)
        runs[workload] = values
        summary[workload] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0],) * 3)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = bound is not None and name != "setup_s" and \
                spread >= bound / 3
            bad += flag
            summary[workload][name] = {
                "unit": units[name], "runs": len(vals), "median": med,
                "q1": q1, "q3": q3, "spread": spread}
            print(f"  {workload:16s} {name:40s} median {med:12.6g} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f}"
                  + (f" bound {bound}" if bound is not None else "")
                  + ("  <-- spread >= bound/3" if flag else ""), flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"summary": summary, "runs": runs, "notes": notes}, fh,
                      indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
