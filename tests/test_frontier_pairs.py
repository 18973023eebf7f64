"""The frontier timing script (`tests/frontier_pairs.py`) runs end to end.

One tiny block, one pair, this checkout on both sides: the JSON section it
prints names the block's stdout and exit code, and a pair of runs whose
stdout differs is refused.
"""

import hashlib
import json
import time
from pathlib import Path

import pytest

import frontier_pairs
from test_acceptance import run_cli

ROOT = Path(__file__).resolve().parents[1]
TINY = ["verify", "--n", "1", "--k", "1", "--r", "2"]


def test_one_tiny_block_runs_one_pair_on_this_tree(capsys):
    start = time.perf_counter()
    assert frontier_pairs.main([str(ROOT), str(ROOT), "--pairs", "1",
                                "--block", "tiny=" + " ".join(TINY)]) == 0
    assert time.perf_counter() - start < 2
    section = json.loads(capsys.readouterr().out)["frontier"]["tiny"]
    assert section["exit_code"] == 0 and section["pairs"] == 1
    assert section["stdout_sha256"] == hashlib.sha256(
        run_cli(TINY).stdout.encode()).hexdigest()
    for metric in ("wall_s", "peak_rss_mb"):
        stats = section["metrics"][metric]
        assert stats["pairs"] == 1
        assert stats["change_better_pairs"] in (0, 1)
        for side in frontier_pairs.SIDES:
            assert stats[f"{side}_quartiles"] == [stats[f"{side}_median"]] * 3
            assert stats[f"{side}_median"] > 0


def test_sides_whose_stdout_differs_are_refused():
    run = {"wall_s": 0.1, "peak_rss_mb": 20.0, "exit_code": 0,
           "stdout_sha256": "a"}
    for other in ({"stdout_sha256": "b"}, {"exit_code": 1}):
        with pytest.raises(ValueError, match="^stdout or exit code differ"):
            frontier_pairs.summarise(
                {"parent": [run, run], "change": [run, {**run, **other}]},
                TINY)
    section = frontier_pairs.summarise(
        {"parent": [run, {**run, "wall_s": 0.3}],
         "change": [{**run, "wall_s": 0.2}, {**run, "wall_s": 0.2}]}, TINY)
    assert section["metrics"]["wall_s"]["change_better_pairs"] == 1
    assert section["metrics"]["wall_s"]["parent_median"] == 0.2
