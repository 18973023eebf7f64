"""Regenerate the committed expected values under perfbench/expected/.

    python3 perfbench/make_expected.py [--ref-seconds S]

Every value is computed by the package at --jobs 1 and then cross-checked
by an independent route before it is written; the script refuses to write
anything if a cross-check fails. The independent routes are the Stirling
formula (census == formula in every campaign cell), the unital-shift
identity count_unital(n + 1, r) == count_full_rank(n, r), and the reference
implementation in tests/refimpl.py, which imports nothing from the package.
The reference is slow, so each of its cells gets S seconds (default 2) and
the cells it finishes are listed in the output files.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys

from common import (CAMPAIGN_ARGS, CAMPAIGN_CELLS, CORANK_ARGS, EXPECTED,
                    ROOT, SRC, child_env)

sys.path.insert(0, str(SRC))
sys.path.insert(0, str(ROOT / "tests"))

from multlat.enumeration import (count_full_rank, count_unital,  # noqa: E402
                                 verify_corank_factorization)
from multlat.partitions import enumerate_ordered_maps  # noqa: E402
from refimpl import (ref_corank_scan, ref_count_full_rank_mult,  # noqa: E402
                     ref_count_unital, stirling_ref)


class _OutOfTime(Exception):
    pass


def _alarm(signum, frame):
    raise _OutOfTime


def within(seconds, fn, *args):
    """fn(*args), or None when it does not finish in time."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(seconds)
    try:
        return fn(*args)
    except _OutOfTime:
        return None
    finally:
        signal.alarm(0)


def require(ok, what):
    if not ok:
        sys.exit(f"make_expected: cross-check failed: {what}")


def campaign(ref_s):
    cells, ref_checked = {}, []
    for b in (1, 2):
        for n, k, r in CAMPAIGN_CELLS:
            rep = verify_corank_factorization(n, k, r, b).as_dict()
            require(rep["status"] == "pass", (n, k, r, b, rep))
            require(rep["oracle_count"] == rep["formula_count"], rep)
            formula = stirling_ref(n + k + 1, n + 1) * \
                ref_count_full_rank_mult(n, r)
            require(formula == rep["formula_count"], (n, k, r, b, formula))
            scan = within(ref_s, ref_corank_scan, n + k, k, r, b * r)
            if scan is not None:
                require(len(scan) == rep["oracle_count"], (n, k, r, b))
                ref_checked.append([n, k, r, b])
            cells[f"{n},{k},{r},{b}"] = rep
    return {
        "source": "verify_corank_factorization(n, k, r, bound) at jobs=1 on "
                  "every CAMPAIGN_CELLS cell (tests/test_acceptance.py) at "
                  "bounds 1 and 2. Every cell passes with oracle_count == "
                  "formula_count; formula_count equals tests/refimpl.py's "
                  "stirling_ref * ref_count_full_rank_mult in every cell; "
                  "oracle_count equals the size of refimpl's unpruned "
                  "ref_corank_scan in the cells listed in ref_scan_checked.",
        "ref_scan_checked": ref_checked,
        "cells": cells,
    }


def cli():
    def run(argv):
        proc = subprocess.run([sys.executable, "-m", "multlat.cli", *argv],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              timeout=600)
        require(proc.returncode == 0, (argv, proc.stderr))
        return proc.stdout.decode()

    return {
        "source": "stdout of `python -m multlat.cli verify BLOCK --jobs 1` "
                  "for each CAMPAIGN_ARGS block, and of `count-corank BLOCK` "
                  "with no cache (a cold census) for each CORANK_ARGS block; "
                  "the benchmark's --jobs 2 runs and cache-served runs must "
                  "reproduce these bytes. Block order is that of "
                  "tests/test_acceptance.py.",
        "verify": [run(["verify", *block, "--jobs", "1"])
                   for block in CAMPAIGN_ARGS],
        "count_corank": [run(["count-corank", *block])
                         for block in CORANK_ARGS],
    }


def series(ref_s):
    full = [count_full_rank(4, r) for r in range(1, 33)]
    unital = [count_unital(5, r) for r in range(1, 17)]
    require(unital == full[:16], "count_unital(5, r) == count_full_rank(4, r)")
    ref_full, ref_unital = [], []
    for r in range(1, 33):
        ref = within(ref_s, ref_count_full_rank_mult, 4, r)
        if ref is not None:
            require(ref == full[r - 1], ("full_rank", 4, r, ref))
            ref_full.append(r)
    for r in range(1, 17):
        ref = within(ref_s, ref_count_unital, 5, r)
        if ref is not None:
            require(ref == full[r - 1], ("unital", 5, r, ref))
            ref_unital.append(r)
    return {
        "source": "count_full_rank(4, r) for r = 1..32 at jobs=1. For "
                  "r = 1..16 count_unital(5, r) gives the same values (the "
                  "unital-shift identity). tests/refimpl.py agrees at the r "
                  "listed in ref_full_rank_checked (ref_count_full_rank_mult) "
                  "and ref_unital_checked (ref_count_unital).",
        "ref_full_rank_checked": ref_full,
        "ref_unital_checked": ref_unital,
        "full_rank_4": full,
    }


def roundtrip(ref_s):
    cores, ref_checked = {}, []
    for n in range(1, 6):
        cores[str(n)] = [count_full_rank(n, r) for r in range(1, 11)]
        for r in range(1, 11):
            ref = within(ref_s, ref_count_full_rank_mult, n, r)
            if ref is not None:
                require(ref == cores[str(n)][r - 1], ("cores", n, r, ref))
                ref_checked.append([n, r])
    maps = {}
    for n in range(6):
        for k in range(6 - n):
            count = sum(1 for _ in enumerate_ordered_maps(n, n + k))
            require(count == stirling_ref(n + k + 1, n + 1), ("maps", n, k))
            maps[f"{n},{k}"] = count
    return {
        "source": "cores: count_full_rank(n, r) for n = 1..5, r = 1..10 at "
                  "jobs=1, equal to tests/refimpl.py's ref_count_full_rank_mult "
                  "at the [n, r] listed in ref_cores_checked. maps: the number "
                  "of ordered maps Z^n -> Z^(n+k), equal to refimpl's "
                  "stirling_ref(n + k + 1, n + 1) in every block.",
        "ref_cores_checked": ref_checked,
        "cores": cores,
        "maps": maps,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ref-seconds", type=int, default=2)
    args = ap.parse_args()
    outputs = {
        "campaign.json": campaign(args.ref_seconds),
        "cli.json": cli(),
        "fullrank_series.json": series(args.ref_seconds),
        "roundtrip.json": roundtrip(args.ref_seconds),
    }
    EXPECTED.mkdir(exist_ok=True)
    for name, data in outputs.items():
        (EXPECTED / name).write_text(json.dumps(data, indent=1) + "\n")
        print(f"wrote {EXPECTED / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
