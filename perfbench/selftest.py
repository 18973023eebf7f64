"""Self-test of the benchmark itself (not part of the package's test suite).

    python3 perfbench/selftest.py

1. A reduced-size run of every workload, untraced and traced, must pass
   every check and print exactly the metric names BENCHMARK.json lists.
2. For every workload, a reduced run against a copy of the expected values
   with one value corrupted must report failed > 0 and a positive
   failed_frac, exit 1, and print no traceback.
3. A copy of BENCHMARK.json and perfbench/ without the package must exit
   non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from common import EXPECTED, HERE, ROOT

WORKLOADS = ("campaign", "cli", "fullrank-series", "roundtrip")


def corrupt_campaign(data):
    data["cells"]["1,1,1,1"]["oracle_count"] += 1


def corrupt_cli(data):
    data["verify"][0] = data["verify"][0].replace("pass", "fail", 1)


def corrupt_series(data):
    data["full_rank_4"][5] += 1


def corrupt_roundtrip(data):
    data["maps"]["1,1"] += 1


CORRUPTIONS = {
    "campaign": ("campaign.json", corrupt_campaign),
    "cli": ("cli.json", corrupt_cli),
    "fullrank-series": ("fullrank_series.json", corrupt_series),
    "roundtrip": ("roundtrip.json", corrupt_roundtrip),
}


def bench(workload, trace, *extra, script=HERE / "run.py"):
    argv = [sys.executable, str(script), "--workload", workload, "--seed",
            "1", "--seconds", "0", "--trace", str(trace), *extra]
    return subprocess.run(argv, capture_output=True, text=True, timeout=600)


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    problems = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            problems.append(what)

    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = bench(workload, trace, "--reduced")
            res = last_json(proc)
            expect(proc.returncode == 0 and res is not None
                   and res["correct"] and res["failed"] == 0
                   and res["attempted"] > 0
                   and set(res["metrics"]) == names[trace],
                   f"{workload} trace={trace} reduced run passes and prints "
                   f"the metrics BENCHMARK.json lists")

    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT))
    try:
        for workload, (filename, corrupt) in CORRUPTIONS.items():
            bad = scratch / workload
            shutil.copytree(EXPECTED, bad)
            data = json.loads((bad / filename).read_text())
            corrupt(data)
            (bad / filename).write_text(json.dumps(data))
            proc = bench(workload, 0, "--reduced", "--expected", str(bad))
            res = last_json(proc)
            frac = [line for line in proc.stdout.splitlines()
                    if "  failed_frac  " in line]
            expect(proc.returncode == 1 and res is not None
                   and not res["correct"] and res["failed"] > 0
                   and frac and float(frac[0].split()[2]) > 0
                   and "Traceback" not in proc.stderr,
                   f"{workload} against a corrupted expected value fails "
                   f"cleanly")

        bare = scratch / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("campaign", 0, script=bare / HERE.name / "run.py")
        expect(proc.returncode != 0 and last_json(proc) is None,
               "without the package the benchmark exits non-zero, no result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
