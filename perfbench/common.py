"""Paths, the campaign definition and process helpers shared by the scripts."""

from __future__ import annotations

import os
import signal
import subprocess
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"

# the acceptance campaign, as in tests/test_acceptance.py
CAMPAIGN_CELLS = tuple(
    [(1, k, r) for k in (1, 2, 3) for r in range(1, 11)]
    + [(2, k, r) for k in (1, 2) for r in range(1, 9)]
    + [(3, 1, r) for r in range(1, 5)]
)
CAMPAIGN_ARGS = (
    ("--n", "1", "--k", "1..3", "--r", "1..10"),
    ("--n", "2", "--k", "1..2", "--r", "1..8"),
    ("--n", "3", "--k", "1", "--r", "1..4"),
)
CORANK_ARGS = (
    ("--ambient", "2", "--corank", "1", "--torsion", "1..10"),
    ("--ambient", "3", "--corank", "2", "--torsion", "1..10"),
    ("--ambient", "4", "--corank", "3", "--torsion", "1..10"),
    ("--ambient", "3", "--corank", "1", "--torsion", "1..8"),
    ("--ambient", "4", "--corank", "2", "--torsion", "1..8"),
    ("--ambient", "4", "--corank", "1", "--torsion", "1..4"),
)


def package_present() -> bool:
    return (SRC / "multlat" / "__init__.py").is_file()


def child_env() -> dict:
    """Environment for child interpreters: the checkout's src/ first, and a
    fixed hash seed, so that no run differs from another by its str hashes."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


# process groups started by run_group and not yet reaped
LIVE_GROUPS: set[int] = set()


def kill_live_groups(signum, frame) -> None:
    """Signal handler: kill every group run_group has started, then exit."""
    for pgid in list(LIVE_GROUPS):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    raise SystemExit(128 + signum)


def run_group(argv: list[str], timeout: float, env: Optional[dict] = None,
              own_group: bool = True) -> tuple[Optional[int], bytes, bytes]:
    """Run argv; returncode None on timeout.

    With own_group the child leads a process group of its own, and on
    timeout, on an exception and after it exits the whole group is killed:
    nothing it started outlives it. A worker starts its CLI runs (which have
    --jobs 2 pool workers below them) with own_group False, so they stay in
    the worker's group and die with it; on timeout only the run is killed.
    """
    proc = subprocess.Popen(argv, cwd=ROOT, env=env or child_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=own_group)

    def kill():
        if not own_group:
            proc.kill()
            return
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    if own_group:
        LIVE_GROUPS.add(proc.pid)
    try:
        out, err = proc.communicate(timeout=max(timeout, 0.1))
    except subprocess.TimeoutExpired:
        kill()
        out, err = proc.communicate()
        return None, out, err
    except BaseException:
        kill()
        proc.wait()
        raise
    finally:
        if own_group:
            kill()
            LIVE_GROUPS.discard(proc.pid)
    return proc.returncode, out, err
