"""Time CLI blocks on two source trees in alternating fresh-process pairs.

    python tests/frontier_pairs.py PARENT CHANGE [--pairs N]
        [--block NAME=ARGS ...]

PARENT and CHANGE are checkouts; each run is `python -m multlat.cli ARGS`
in its own fresh process, with the tree's `src` as PYTHONPATH, the tree as
its working directory and PYTHONDONTWRITEBYTECODE=1. The default blocks
are `verify` of the frontier cells (6,1,8), (5,2,6) and (4,3,8) and of the
prime-torsion cell (4,4,7), each at `--jobs 1` and `--jobs 2`. Each block runs for N pairs, one process at a time; pair i
runs the parent first when i is even and the change first when it is odd.
Each run records its wall time, its peak RSS (`ru_maxrss` from
`os.wait4`, which covers the workers it forked and waited for), its exit
code and the SHA-256 of its stdout.

Prints one JSON object, a section for a `BENCH_<slug>.json`: per block, the
median and quartiles (`statistics.quantiles(n=4, method='inclusive')`) of
each side's wall time and peak RSS, and in how many pairs the change was
lower. Exits 1, naming the block, when any run's stdout or exit code
differs from the others', on either side. Standard library only; not part
of the test suite, which runs it once on a tiny block.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

DEFAULT_BLOCKS = {
    f"verify-{n}-{k}-{r}-jobs-{jobs}": [
        "verify", "--n", str(n), "--k", str(k), "--r", str(r),
        "--jobs", str(jobs)]
    for n, k, r in ((6, 1, 8), (5, 2, 6), (4, 3, 8), (4, 4, 7))
    for jobs in (1, 2)}
SIDES = ("parent", "change")


def run_once(tree: Path, args: list[str]) -> dict:
    """One fresh `python -m multlat.cli` process on the tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "multlat.cli", *args],
                                cwd=tree, env=env, stdout=out,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024,
            "exit_code": proc.returncode, "stdout_sha256": digest}


def spread(values: list[float]) -> list[float]:
    """The quartiles of values, all three equal to it for one value."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarise(runs: dict[str, list[dict]], args: list[str]) -> dict:
    """A block's section from each side's runs, listed pair by pair; raises
    ValueError when any run's stdout or exit code differs from another's."""
    outputs = {(run["exit_code"], run["stdout_sha256"])
               for side in SIDES for run in runs[side]}
    if len(outputs) != 1:
        raise ValueError(f"stdout or exit code differ: {sorted(outputs)}")
    (exit_code, digest), = outputs
    pairs = len(runs["parent"])
    metrics = {}
    for metric, places in (("wall_s", 4), ("peak_rss_mb", 2)):
        values = {side: [run[metric] for run in runs[side]] for side in SIDES}
        metrics[metric] = {
            **{f"{side}_median": round(statistics.median(values[side]),
                                       places) for side in SIDES},
            **{f"{side}_quartiles": [round(q, places)
                                     for q in spread(values[side])]
               for side in SIDES},
            "change_better_pairs": sum(
                c < p for p, c in zip(values["parent"], values["change"])),
            "pairs": pairs,
        }
    return {"command": shlex.join(["python", "-m", "multlat.cli", *args]),
            "pairs": pairs, "order": "pair 0 parent first, then alternating",
            "exit_code": exit_code, "stdout_sha256": digest,
            "metrics": metrics}


def measure(trees: dict[str, Path], blocks: dict[str, list[str]],
            pairs: int) -> dict:
    """Every block's section, its pairs run block by block."""
    sections = {}
    for name, args in blocks.items():
        runs = {side: [] for side in SIDES}
        for i in range(pairs):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                runs[side].append(run_once(trees[side], args))
            print(f"{name}: pair {i + 1} of {pairs}", file=sys.stderr,
                  flush=True)
        try:
            sections[name] = summarise(runs, args)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    return sections


def _block(text: str) -> tuple[str, list[str]]:
    name, sep, args = text.partition("=")
    if not (name and sep and args.strip()):
        raise argparse.ArgumentTypeError("a block is NAME=ARGS")
    return name, shlex.split(args)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Time CLI blocks on two trees in alternating pairs.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--block", type=_block, action="append",
                        metavar="NAME=ARGS")
    opts = parser.parse_args(argv)
    if opts.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {side: getattr(opts, side).resolve() for side in SIDES}
    try:
        sections = measure(trees, dict(opts.block or DEFAULT_BLOCKS),
                           opts.pairs)
    except ValueError as exc:
        print(f"frontier_pairs: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"frontier": sections}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
