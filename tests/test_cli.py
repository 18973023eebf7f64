"""Command-line behavior: formats, exit codes, caching, determinism.

In-process main() calls cover the fast paths; the determinism checks that
compare whole invocations byte for byte go through subprocesses.
"""

import csv
import importlib.util
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import multlat.cli as cli
import multlat.enumeration as enumeration
import multlat.intlinalg as intlinalg
import multlat.partitions as partitions
import multlat.scan as scan
from multlat import ENGINE_VERSION
from multlat.enumeration import VerificationReport
from multlat.lattice import Lattice, lattice_from_rows
from refimpl import partitions_ref
from test_enumeration import _rows_added, _first_task_ends_swapped

# the address space of a child under `cap_address_space`: ample for any
# request the tests make, and far below a host's memory
ADDRESS_SPACE = 2 ** 30


def run_python(args, preexec_fn=None):
    # the checkout's src first, so no installed copy answers in its place
    src = str(Path(__file__).resolve().parents[1] / "src")
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, timeout=600, env=env,
                          preexec_fn=preexec_fn)


def run_cli(argv, preexec_fn=None):
    return run_python(["-m", "multlat.cli", *argv], preexec_fn)


def cap_address_space():
    # run in the child before it starts; a tighter soft limit stays
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > ADDRESS_SPACE:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, hard))


def run_main(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ------------------------------------------------------------------- count

def test_count_rank_one_is_all_ones(capsys):
    rc, out, err = run_main(capsys, ["count", "--n", "1", "--r", "1..10"])
    lines = out.splitlines()
    assert rc == 0
    assert len(lines) == 11
    assert lines[0].split() == ["n", "k", "r", "method", "count", "status"]
    for line in lines[1:]:
        cells = line.split()
        assert cells[4] == "1" and cells[5] == "ok"
    assert "10 cells, 0 incomplete" in err


def test_count_table_golden(capsys):
    rc, out, _ = run_main(capsys, ["count", "--n", "2", "--r", "2"])
    assert rc == 0
    assert out == (
        "n  k  r  method  count  status\n"
        "2  0  2  oracle  3      ok\n"
    )


def test_count_csv(capsys):
    rc, out, _ = run_main(
        capsys, ["count", "--n", "2", "--r", "1..4", "--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,r,method,count,status"
    assert lines[1:] == [
        "2,0,1,oracle,1,ok",
        "2,0,2,oracle,3,ok",
        "2,0,3,oracle,3,ok",
        "2,0,4,oracle,4,ok",
    ]


def test_count_json(capsys):
    rc, out, _ = run_main(
        capsys, ["count", "--n", "2", "--r", "2", "--format", "json"])
    assert rc == 0
    rec = json.loads(out)
    assert rec == {"n": 2, "k": 0, "r": 2, "method": "oracle",
                   "count": 3, "status": "ok"}
    # keys come out sorted for byte-stable output
    assert out.index('"count"') < out.index('"status"')


def test_count_unital_method(capsys):
    rc, out, _ = run_main(
        capsys,
        ["count", "--n", "2", "--r", "1..3", "--method", "unital",
         "--format", "csv"])
    assert rc == 0
    assert out.splitlines()[1:] == [
        "2,0,1,unital,1,ok",
        "2,0,2,unital,1,ok",
        "2,0,3,unital,1,ok",
    ]


def test_count_budget_incomplete(capsys):
    rc, out, err = run_main(
        capsys,
        ["count", "--n", "3", "--r", "8", "--budget", "50",
         "--format", "csv"])
    assert rc == 2
    assert out.splitlines()[1] == "3,0,8,oracle,,incomplete"
    assert "1 incomplete" in err


def test_count_budget_incomplete_table_dash(capsys):
    rc, out, _ = run_main(
        capsys, ["count", "--n", "3", "--r", "8", "--budget", "50"])
    assert rc == 2
    assert out.splitlines()[1].split() == \
        ["3", "0", "8", "oracle", "-", "incomplete"]


# ------------------------------------------------------------ count-corank

def test_count_corank_formula_example(capsys):
    rc, out, _ = run_main(
        capsys,
        ["count-corank", "--ambient", "4", "--corank", "2",
         "--torsion", "2", "--method", "formula", "--format", "csv"])
    assert rc == 0
    assert out.splitlines()[1] == "2,2,2,formula,75,ok"


def test_count_corank_formula_honours_budget(capsys):
    # the formula's full-rank count runs under --budget, as `count` does
    rc, out, _ = run_main(
        capsys,
        ["count-corank", "--ambient", "4", "--corank", "1", "--torsion", "8",
         "--method", "formula", "--budget", "5"])
    assert rc == 2
    assert out.splitlines()[1].split() == \
        ["3", "1", "8", "formula", "-", "incomplete"]


def test_count_corank_oracle_agrees_with_formula(capsys):
    args = ["count-corank", "--ambient", "3", "--corank", "1",
            "--torsion", "1..3", "--format", "csv"]
    rc, out, _ = run_main(capsys, args)
    assert rc == 0
    oracle_rows = out.splitlines()[1:]
    rc, out, _ = run_main(capsys, args + ["--method", "formula"])
    assert rc == 0
    formula_rows = out.splitlines()[1:]
    for a, b in zip(oracle_rows, formula_rows):
        assert a.split(",")[4] == b.split(",")[4]


def test_count_corank_zero_is_plain_counting(capsys):
    # whichever method is requested, k = 0 cells are full-rank counts, and
    # count's oracle cell, the co-rank census at co-rank 0, is checked as
    # the full-rank census is
    rc, out, _ = run_main(
        capsys,
        ["count-corank", "--ambient", "2", "--corank", "0", "--torsion", "4",
         "--method", "formula", "--format", "csv"])
    assert rc == 0
    assert out.splitlines()[1] == "2,0,4,oracle,4,ok"
    rc, out, _ = run_main(
        capsys, ["count", "--n", "3", "--r", "4", "--format", "csv"])
    assert rc == 0
    assert out.splitlines()[1] == (
        f"3,0,4,oracle,{enumeration.count_full_rank(3, 4)},ok")


def test_a_large_prime_torsion_answers_at_once(capsys):
    # a rank-1 cell builds no divisor list, and a rank-2 one stops its
    # trial division at the first trial above the budget
    t0 = time.perf_counter()
    rc, out, _ = run_main(
        capsys,
        ["count-corank", "--ambient", "2", "--corank", "1",
         "--torsion", "99999999999973", "--format", "csv"])
    assert time.perf_counter() - t0 < 0.2
    assert rc == 0
    assert out.splitlines()[1] == "1,1,99999999999973,oracle,3,ok"
    t0 = time.perf_counter()
    rc, out, _ = run_main(
        capsys,
        ["count", "--n", "2", "--r", "99999999999973", "--budget", "10",
         "--format", "csv"])
    assert time.perf_counter() - t0 < 0.2
    assert rc == 2
    assert out.splitlines()[1] == "2,0,99999999999973,oracle,,incomplete"


def test_count_corank_bad_corank(capsys):
    # the engines' cell check refuses it under either method, before a row
    for method in ("oracle", "formula"):
        rc, out, err = run_main(
            capsys,
            ["count-corank", "--ambient", "2", "--corank", "3", "--torsion",
             "1", "--method", method])
        assert rc == 2
        assert out == ""
        assert err == "usage error: need 0 <= corank <= ambient\n"


# ------------------------------------------------------------------ verify

def test_verify_single_cell(capsys):
    rc, out, err = run_main(
        capsys,
        ["verify", "--n", "2", "--k", "1", "--r", "2", "--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == ("n,k,r,oracle_count,formula_count,stirling_factor,"
                        "full_rank_count,witnesses_checked,status")
    assert lines[1] == "2,1,2,18,18,6,3,18,pass"
    assert "1 cells, all passed" in err


def test_verify_campaign_csv(capsys):
    rc, out, _ = run_main(
        capsys,
        ["verify", "--n", "1", "--k", "1..2", "--r", "1..4",
         "--format", "csv"])
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 8
    assert all(r[-1] == "pass" for r in rows)


def test_verify_table_golden(capsys):
    # streamed rows: every table column is at least five wide
    rc, out, _ = run_main(
        capsys, ["verify", "--n", "1..2", "--k", "1", "--r", "2"])
    assert rc == 0
    assert out == (
        "n      k      r      oracle_count  formula_count  stirling_factor"
        "  full_rank_count  witnesses_checked  status\n"
        "1      1      2      3             3              3"
        "                1                3                  pass\n"
        "2      1      2      18            18             6"
        "                3                18                 pass\n"
    )


def test_verify_json_golden(capsys):
    rc, out, _ = run_main(
        capsys,
        ["verify", "--n", "1..2", "--k", "1", "--r", "2", "--format", "json"])
    assert rc == 0
    assert out == (
        '{"formula_count": 3, "full_rank_count": 1, "k": 1, "n": 1, '
        '"oracle_count": 3, "r": 2, "status": "pass", "stirling_factor": 3, '
        '"witnesses_checked": 3}\n'
        '{"formula_count": 18, "full_rank_count": 3, "k": 1, "n": 2, '
        '"oracle_count": 18, "r": 2, "status": "pass", "stirling_factor": 6, '
        '"witnesses_checked": 18}\n'
    )


def test_verify_failure_path_prints_counterexample(capsys, monkeypatch):
    # force a failing report to exercise the exit-1 branch; the library
    # itself has no known failing cell
    bad = VerificationReport(2, 1, 2, 17, 18, 10, 3, 17, "fail")
    witness = lattice_from_rows(3, [(1, 1, 0), (0, 0, 2)])
    monkeypatch.setattr(enumeration, "_verify", lambda *a, **kw: (
        bad, (witness, "synthetic reason")))
    rc, out, err = run_main(
        capsys,
        ["verify", "--n", "2", "--k", "1", "--r", "2", "--format", "csv"])
    assert rc == 1
    assert out.splitlines()[1].endswith("fail")
    assert 'counterexample: {"ambient": 3' in err
    assert "reason: synthetic reason" in err
    assert "FAILED at n=2 k=1 r=2" in err


def test_a_failing_cell_takes_one_census(capsys, monkeypatch):
    # a census missing a lattice fails the cell on its count; the verifier
    # and the command line name the lattice from the census and full-rank
    # lattices they already took, each taken once; the census is bases
    census = enumeration._census(3, 1, 2, jobs=1, budget=None)
    missed = Lattice(3, census[7])
    full_rank = enumeration.enumerate_full_rank_multiplicative
    calls = []

    def dropped(*a, **kw):
        calls.append("_census")
        return census[:7] + census[8:]

    def counted(*a, **kw):
        calls.append("full_rank")
        return full_rank(*a, **kw)

    monkeypatch.setattr(enumeration, "_census", dropped)
    monkeypatch.setattr(enumeration, "enumerate_full_rank_multiplicative",
                        counted)
    report, found = enumeration._verify(2, 1, 2, jobs=1, budget=None)
    assert report.status == "fail"
    assert found == (missed,
                     "reachable through a map but missed by the census")
    assert sorted(calls) == ["_census", "full_rank"]
    calls.clear()
    rc, out, err = run_main(
        capsys,
        ["verify", "--n", "2", "--k", "1", "--r", "2", "--format", "csv"])
    assert rc == 1
    assert out.splitlines()[1].endswith("fail")
    assert ("counterexample: "
            + json.dumps(missed.as_dict(), sort_keys=True)) in err
    assert "reason: reachable through a map but missed by the census" in err
    assert sorted(calls) == ["_census", "full_rank"]


def _swap_into_census(monkeypatch, lat, last=False, added=False):
    # the verifier takes its witnesses from the census, as bases, before
    # any check; lat's basis replaces the first witness, or with last the
    # last one, so that every closed witness before it has been checked;
    # with added it goes before the first or after the last, and replaces
    # none
    census = enumeration._census
    cut = 0 if added else 1

    def swapped(*a, **kw):
        bases = census(*a, **kw)
        if last:
            return bases[:len(bases) - cut] + [lat.basis]
        return [lat.basis] + bases[cut:]

    monkeypatch.setattr(enumeration, "_census", swapped)


def _check_non_rigid_witness(capsys, monkeypatch, last):
    # a lattice without rigid columns put into a real census must fail the
    # cell through the verifier's own checks, not a forced report; no
    # multiplicative lattice lacks rigid columns, so this one is accepted
    # as multiplicative by hand, and as a stray it is reachable through no
    # map; the offender is the least lattice on one side only: in place of
    # a witness, the stray or the witness it displaced, and added to the
    # census, the stray alone
    non_rigid = lattice_from_rows(3, [(1, 2, 3), (0, 0, 2)])
    accept = enumeration.is_multiplicative
    monkeypatch.setattr(enumeration, "is_multiplicative",
                        lambda lat: lat == non_rigid or accept(lat))
    census = enumeration._census(3, 1, 2, jobs=1, budget=None)
    displaced = Lattice(3, census[-1 if last else 0])
    least = min(non_rigid, displaced, key=lambda lat: (lat.rank, lat.basis))
    for added, named in ((False, least), (True, non_rigid)):
        with monkeypatch.context() as patched:
            _swap_into_census(patched, non_rigid, last=last, added=added)
            rc, out, err = run_main(
                capsys,
                ["verify", "--n", "2", "--k", "1", "--r", "2",
                 "--format", "csv"])
        assert rc == 1
        assert out.splitlines()[1].endswith("fail")
        assert ("counterexample: "
                + json.dumps(named.as_dict(), sort_keys=True)) in err
        assert ("reason: censused but not reachable through any map"
                if named == non_rigid else
                "reason: reachable through a map but missed by the census"
                ) in err
        assert "FAILED at n=2 k=1 r=2" in err


def test_verify_reports_a_non_rigid_witness(capsys, monkeypatch):
    _check_non_rigid_witness(capsys, monkeypatch, last=False)


def test_verify_rejects_a_non_multiplicative_witness(capsys, monkeypatch):
    # a witness that is not closed under products is an engine fault, not
    # a counterexample: its pivot square is no full-rank lattice of the
    # census, so it is re-verified on its own basis, and fails
    not_closed = lattice_from_rows(3, [(1, 2, 2), (0, 3, 3)])
    _swap_into_census(monkeypatch, not_closed)
    rc, out, err = run_main(
        capsys,
        ["verify", "--n", "2", "--k", "1", "--r", "2", "--format", "csv"])
    assert rc == 3
    assert out.splitlines()[1:] == []  # the CSV header, no report
    assert err == "internal error: engine produced a bad lattice\n"


def test_verify_reports_a_non_rigid_witness_after_closed_ones(capsys,
                                                             monkeypatch):
    # the verifier places the closed witnesses on full-rank lattices; a
    # witness after every closed one is still checked on its own
    _check_non_rigid_witness(capsys, monkeypatch, last=True)


def test_verify_rejects_a_non_multiplicative_witness_after_closed_ones(
        capsys, monkeypatch):
    not_closed = lattice_from_rows(3, [(1, 2, 2), (0, 3, 3)])
    _swap_into_census(monkeypatch, not_closed, last=True)
    rc, out, err = run_main(
        capsys,
        ["verify", "--n", "2", "--k", "1", "--r", "2", "--format", "csv"])
    assert rc == 3
    assert out.splitlines()[1:] == []
    assert err == "internal error: engine produced a bad lattice\n"


def test_verify_budget_error(capsys):
    rc, _, err = run_main(
        capsys,
        ["verify", "--n", "3", "--k", "0", "--r", "8", "--budget", "50"])
    assert rc == 2
    assert "budget error" in err


# -------------------------------------------------------------------- cache

def test_cache_cold_then_warm(tmp_path, capsys):
    cache = str(tmp_path / "counts.jsonl")
    argv = ["count", "--n", "2", "--r", "1..6", "--cache", cache,
            "--format", "csv"]
    rc1, out1, _ = run_main(capsys, argv)
    size1 = len((tmp_path / "counts.jsonl").read_text().splitlines())
    rc2, out2, _ = run_main(capsys, argv)
    size2 = len((tmp_path / "counts.jsonl").read_text().splitlines())
    assert (rc1, rc2) == (0, 0)
    assert out1 == out2
    assert size1 == 6
    assert size2 == size1, "warm run appended to the cache"


def test_warm_cache_is_actually_read(tmp_path, capsys):
    cache = str(tmp_path / "counts.jsonl")
    run_main(capsys, ["count", "--n", "3", "--r", "6", "--cache", cache])
    # a budget this small would die instantly if the count were recomputed
    rc, out, _ = run_main(
        capsys,
        ["count", "--n", "3", "--r", "6", "--cache", cache,
         "--budget", "10", "--format", "csv"])
    assert rc == 0
    assert out.splitlines()[1] == "3,0,6,oracle,36,ok"


def test_verify_deposits_oracle_counts(tmp_path, capsys):
    cache = str(tmp_path / "counts.jsonl")
    rc, _, _ = run_main(
        capsys,
        ["verify", "--n", "2", "--k", "1", "--r", "2", "--cache", cache])
    assert rc == 0
    # the deposited census count feeds later count-corank runs
    rc, out, _ = run_main(
        capsys,
        ["count-corank", "--ambient", "3", "--corank", "1", "--torsion", "2",
         "--cache", cache, "--budget", "10", "--format", "csv"])
    assert rc == 0
    assert out.splitlines()[1] == "2,1,2,oracle,18,ok"


def test_a_huge_torsion_stops_on_its_budget(capsys):
    # the leads come from one list of the torsion's divisors, found from
    # its factorization, so a budget of 10 stops a torsion of 10^12 within
    # a second, and one of 10^16 = 2^16 * 5^16, whose square root trial
    # division would take 10^8 steps to reach, as soon
    for argv in (["count", "--n", "2", "--r", "1000000000000"],
                 ["count", "--n", "2", "--r", "10000000000000000"],
                 ["count-corank", "--ambient", "3", "--corank", "1",
                  "--torsion", "1000000000000"]):
        rc, out, err = run_main(capsys, argv + ["--budget", "10",
                                                "--format", "csv"])
        assert rc == 2
        assert out.splitlines()[1].endswith(f",{argv[-1]},oracle,,incomplete")
        assert "1 incomplete" in err


def test_a_budget_that_completes_at_one_job_completes_at_every_jobs(capsys):
    # the first level and each task, one per first-level row, take a share
    # of the whole census's steps, 517 here: the budget that completes at
    # --jobs 1 completes with the same bytes at every --jobs. Above --jobs 1
    # each has its own budget, so one that stops --jobs 1 may let --jobs 2
    # complete
    argv = ["count-corank", "--ambient", "4", "--corank", "1", "--torsion",
            "4", "--format", "csv"]
    outs = set()
    for jobs in ("1", "2", "3"):
        rc, out, _ = run_main(capsys, argv + ["--budget", "517",
                                              "--jobs", jobs])
        assert rc == 0
        outs.add(out)
    assert outs == {"n,k,r,method,count,status\n3,1,4,oracle,130,ok\n"}
    rc, out, _ = run_main(capsys, argv + ["--budget", "400"])
    assert rc == 2 and out.splitlines()[1] == "3,1,4,oracle,,incomplete"
    rc, out, _ = run_main(capsys, argv + ["--budget", "400", "--jobs", "2"])
    assert rc == 0 and out.splitlines()[1] == "3,1,4,oracle,130,ok"


@pytest.mark.parametrize("argv", [
    ["partitions", "--n", "1", "--k", "2000"],
    ["count-corank", "--ambient", "2000", "--corank", "1999", "--torsion",
     "1"],
])
def test_a_request_too_deep_exits_two(argv):
    # RecursionError is a RuntimeError, yet the limit is the request's,
    # not a failed self-check: exit 2 with one line, no traceback. The scan
    # builds the first row of Z^2000 deepest first, so it meets the limit
    # at once; a walk that listed the shallow lattices first, about 2^2000
    # of them, would run out of memory, so each request runs in a fresh
    # interpreter under an address-space cap, not in this process
    proc = run_cli(argv, preexec_fn=cap_address_space)
    assert proc.returncode == 2
    assert proc.stderr.startswith("resource error: RecursionError(")
    assert proc.stderr.count("\n") == 1


def test_a_request_too_large_exits_two(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(enumeration, "_census", exhausted)
    rc, _, err = run_main(
        capsys, ["verify", "--n", "2", "--k", "1", "--r", "2"])
    assert rc == 2
    assert err == "resource error: MemoryError()\n"


def test_budget_error_exits_two_in_a_fresh_interpreter():
    # the engines are imported by the command, not with the cli module
    proc = run_cli(["verify", "--n", "3", "--k", "0", "--r", "8",
                    "--budget", "50"])
    assert proc.returncode == 2
    assert proc.stderr.startswith("budget error:")
    assert proc.stderr.count("\n") == 1


def test_cache_directory_exits_two_without_traceback(tmp_path):
    proc = run_cli(["count", "--n", "1", "--r", "1..2",
                    "--cache", str(tmp_path)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("io error:")
    assert proc.stderr.count("\n") == 1


def test_unwritable_cache_exits_two(tmp_path, capsys):
    # the cache file's parent is a regular file, so the first put fails
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    rc, _, err = run_main(
        capsys,
        ["count", "--n", "1", "--r", "1",
         "--cache", str(blocker / "counts.jsonl")])
    assert rc == 2
    assert err.startswith("io error:")
    assert err.count("\n") == 1


def test_cache_conflict_exits_two(tmp_path, capsys):
    cache = tmp_path / "counts.jsonl"
    cache.write_text(json.dumps(
        {"n": 2, "k": 1, "r": 2, "method": "oracle",
         "engine_version": ENGINE_VERSION, "count": 17,
         "created_at": "2020-01-01T00:00:00+00:00"}) + "\n")
    rc, _, err = run_main(
        capsys,
        ["verify", "--n", "2", "--k", "1", "--r", "2", "--cache", str(cache)])
    assert rc == 2
    assert err.startswith("cache error: cache conflict")
    assert err.count("\n") == 1


def test_cache_line_that_is_not_utf8_is_skipped(tmp_path, capsys):
    cache = tmp_path / "counts.jsonl"
    # a count no engine gives, so the row shows the line was served
    good = {"n": 1, "k": 0, "r": 1, "method": "oracle",
            "engine_version": ENGINE_VERSION, "count": 7,
            "created_at": "2026-01-01T00:00:00+00:00"}
    cache.write_bytes(b"\xff\xfe garbage\n" + json.dumps(good).encode()
                      + b"\n")
    rc, out, err = run_main(
        capsys, ["count", "--n", "1", "--r", "1", "--cache", str(cache),
                 "--format", "csv"])
    assert rc == 0
    assert out.splitlines()[1] == "1,0,1,oracle,7,ok"
    assert err.count("skipping unreadable line") == 1
    assert "line 1 " in err


# ----------------------------------------------------------- internal errors

def test_internal_error_exits_three(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("internal: scan produced a bad lattice")

    monkeypatch.setattr(enumeration, "_checked", broken)
    rc, out, err = run_main(
        capsys, ["verify", "--n", "1", "--k", "1", "--r", "2"])
    assert rc == 3
    assert err == "internal error: scan produced a bad lattice\n"
    rc, out, err = run_main(
        capsys,
        ["count-corank", "--ambient", "2", "--corank", "1", "--torsion", "2"])
    assert rc == 3
    assert out == ""
    assert err.count("\n") == 1


def test_a_passing_verify_carries_no_rows_through_a_map(capsys, monkeypatch):
    # a passing cell places each witness by its key and row widths alone
    # (`enumeration._place`) and applies no map, so with the
    # transport broken it prints the same table and passes
    argv = ["verify", "--n", "2", "--k", "1", "--r", "2"]
    _, expected, _ = run_main(capsys, argv)

    def broken(*args):
        raise AssertionError("rows carried through a map")

    monkeypatch.setattr(partitions, "_transport_rows", broken)
    rc, out, err = run_main(capsys, argv)
    assert rc == 0
    assert out == expected and out.count("\n") == 2
    assert err.startswith("1 cells, all passed, ")


def test_a_lattice_found_twice_exits_three(capsys, monkeypatch):
    # either engine's repeat is a failed self-check, at exit status 3
    worker = scan._corank_worker
    monkeypatch.setattr(scan, "_corank_worker",
                        lambda args: worker(args) * 2)
    for argv in (["count", "--n", "2", "--r", "2"],
                 ["count-corank", "--ambient", "3", "--corank", "1",
                  "--torsion", "2"]):
        rc, out, err = run_main(capsys, argv)
        assert rc == 3, argv
        assert out == ""
        assert err == "internal error: engine produced a lattice twice\n"


def test_a_bad_engine_lattice_exits_three(capsys, monkeypatch):
    # a basis that fails the Lattice constructor is the engine's fault, not
    # the user's: exit 3, not the usage error's 2; verify has printed its
    # table header by then, and no row
    worker = scan._corank_worker
    monkeypatch.setattr(scan, "_corank_worker",
                        lambda args: _rows_added(worker(args)))
    for argv, lines in (
            (["count", "--n", "2", "--r", "2"], 0),
            (["count-corank", "--ambient", "3", "--corank", "1",
              "--torsion", "2"], 0),
            (["verify", "--n", "2", "--k", "1", "--r", "2"], 1)):
        rc, out, err = run_main(capsys, argv)
        assert rc == 3, argv
        assert out.count("\n") == lines, argv
        assert err == ("internal error: engine produced an invalid basis: "
                       "basis is not in canonical Hermite form\n")


def test_a_bad_census_basis_exits_three(capsys, monkeypatch):
    # the verifier builds no Lattice for a witness it places, yet a census
    # basis the constructor would refuse still fails verify at exit 3, with
    # the full-rank side left whole: a stray, whose key is no core's, is
    # refused by the constructor; a basis one entry too wide in its top row
    # keeps the key of the basis it came from, as `zip` stops at the
    # shortest row, and a basis one entry too wide in every row keeps its
    # key too, and so does a basis whose lower row lost an entry of a zero
    # column, so placement checks every row's width: a witness of the
    # wrong width or row count is a stray, and the constructor refuses it,
    # as count and count-corank do. The fault goes to the co-rank side's
    # tasks alone, told apart by their rows' width, 3, from the full-rank
    # side's, 2, which stays whole
    worker = scan._corank_worker
    faulted = []

    def corank_side(fault, task):
        if len(task[1][0]) == 2:
            return worker(task)
        faulted.append(task)
        return fault(worker(task))

    def top_row_widened(bases):
        (top, *rest), *others = bases
        return [(top + (0,), *rest), *others]

    def all_rows_widened(bases):
        first, *others = bases
        return [tuple(row + (0,) for row in first), *others]

    def lower_row_shortened(bases):
        # its last column is zero; the census stays in order
        return [(top, low[:-1]) if (top, low) == ((2, 0, 0), (0, 1, 0))
                else (top, low) for top, low in bases]

    whole = enumeration.enumerate_full_rank_multiplicative(2, 2)
    for fault, reason in (
            (_rows_added, "engine produced an invalid basis: basis is not "
                          "in canonical Hermite form"),
            (top_row_widened, "engine produced an invalid basis: basis "
                              "rows must match the ambient dimension"),
            (all_rows_widened, "engine produced an invalid basis: basis "
                               "rows must match the ambient dimension"),
            (lower_row_shortened, "engine produced an invalid basis: basis "
                                  "rows must match the ambient dimension")):
        monkeypatch.setattr(scan, "_corank_worker",
                            lambda task: corank_side(fault, task))
        del faulted[:]
        rc, out, err = run_main(
            capsys, ["verify", "--n", "2", "--k", "1", "--r", "2"])
        assert rc == 3, reason
        assert out.count("\n") == 1
        assert err == f"internal error: {reason}\n"
        assert faulted and {len(task[1][0]) for task in faulted} == {3}
        assert enumeration.enumerate_full_rank_multiplicative(2, 2) == whole
    # at rank 0 every column is zero, so a zero row keeps the zero lattice's
    # key; no worker runs there, so the census itself carries the fault
    monkeypatch.setattr(enumeration, "_census", lambda *a, **kw: [((0,),)])
    rc, out, err = run_main(
        capsys, ["verify", "--n", "0", "--k", "1", "--r", "1"])
    assert rc == 3
    assert out.count("\n") == 1
    assert err == ("internal error: engine produced an invalid basis: basis "
                   "may not contain zero rows\n")


def test_a_census_out_of_order_exits_three(capsys, monkeypatch):
    # two neighbours of the first task swapped, no basis twice, at each
    # --jobs
    monkeypatch.setattr(scan, "_corank_worker", _first_task_ends_swapped)
    for jobs in ("1", "2"):
        rc, out, err = run_main(capsys, ["verify", "--n", "2", "--k", "1",
                                         "--r", "2", "--jobs", jobs])
        assert rc == 3
        assert out.count("\n") == 1
        assert err == ("internal error: engine produced the census out of "
                       "order\n")


def test_a_unital_census_basis_without_the_unit_exits_three(capsys,
                                                            monkeypatch):
    # the lift of a basis of Z^1 holds (1, 1), so a lifted basis without it
    # is the engine's fault, not a lattice to leave out of the count: a
    # closed basis of the full census that passes the constructor and
    # re-verification still fails count_unital, and count exits 3
    full = scan._run_shards(2, 0, 2, 1, None)
    stray = [b for b in full
             if intlinalg._solve(b, enumerate(range(2)), [1, 1]) is None]
    assert stray
    monkeypatch.setattr(enumeration, "_unital_basis", lambda basis: stray[0])
    with pytest.raises(RuntimeError, match="^internal: "):
        enumeration.count_unital(2, 2)
    rc, out, err = run_main(
        capsys, ["count", "--n", "2", "--r", "2", "--method", "unital"])
    assert rc == 3
    assert out == ""
    assert err == ("internal error: unital census listed a lattice without "
                   "(1, ..., 1)\n")


# -------------------------------------------------------------- partitions

def test_partitions_listing(capsys):
    rc, out, err = run_main(capsys, ["partitions", "--n", "1", "--k", "1"])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert "3 rows, Stirling value 3" in err


def test_partitions_listing_that_disagrees_with_stirling_exits_one(
        capsys, monkeypatch):
    # the listing is printed in full, and the disagreement fails the run
    monkeypatch.setattr(partitions, "stirling2", lambda u, v: 4)
    rc, out, err = run_main(capsys, ["partitions", "--n", "1", "--k", "1"])
    assert rc == 1
    assert len(out.splitlines()) == 4
    assert err.splitlines() == [
        "3 rows, Stirling value 4",
        "partition count disagrees with the Stirling number"]


def test_partitions_as_maps_json(capsys):
    rc, out, _ = run_main(
        capsys,
        ["partitions", "--n", "1", "--k", "1", "--as-maps",
         "--format", "json"])
    assert rc == 0
    maps = [json.loads(line)["map"] for line in out.splitlines()]
    assert maps == ["0,a", "a,0", "a,a"]


def test_partitions_blocks_cover_ground_set(capsys):
    rc, out, _ = run_main(
        capsys,
        ["partitions", "--n", "2", "--k", "1", "--format", "json"])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 6  # stirling2(4, 3)
    assert json.loads(lines[0])["partition"] == "{0,1}{2}{3}"


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_partitions_listing_is_the_reference_listing(capsys, fmt):
    # each format prints, in order, the partitions of {0..4} into 3 blocks
    rc, out, _ = run_main(
        capsys, ["partitions", "--n", "2", "--k", "2", "--format", fmt])
    assert rc == 0
    lines = out.splitlines()
    if fmt == "table":
        cells = [line.split()[1] for line in lines[1:]]
    elif fmt == "csv":
        cells = [row[1] for row in csv.reader(lines[1:])]
    else:
        cells = [json.loads(line)["partition"] for line in lines]
    listed = [tuple(tuple(int(e) for e in block.split(","))
                    for block in cell[1:-1].split("}{"))
              for cell in cells]
    assert listed == partitions_ref(5, 3)


# ------------------------------------------------------------------ series

def test_series_defaults_to_csv(capsys):
    rc, out, _ = run_main(capsys, ["series", "--n", "2", "--r-max", "5"])
    assert rc == 0
    assert out.splitlines() == [
        "r,f,N", "1,1,1", "2,1,2", "3,1,3", "4,1,4", "5,1,5"]


def test_series_rank_one_convention(capsys):
    # only the trivial subring of Z contains 1, so the series collapses
    rc, out, _ = run_main(capsys, ["series", "--n", "1", "--r-max", "4"])
    assert rc == 0
    assert out.splitlines()[1:] == ["1,1,1", "2,0,1", "3,0,1", "4,0,1"]


def test_series_full_rank_family(capsys):
    rc, out, _ = run_main(
        capsys,
        ["series", "--n", "2", "--r-max", "6", "--family", "full-rank"])
    assert rc == 0
    assert out.splitlines()[1:] == [
        "1,1,1", "2,3,4", "3,3,7", "4,4,11", "5,3,14", "6,9,23"]


def test_series_truncation_marker_follows_the_rows(capsys):
    argv = ["series", "--n", "3", "--r-max", "9", "--family", "full-rank",
            "--budget", "50"]
    rc, out, err = run_main(capsys, argv)
    assert rc == 2
    lines = out.splitlines()
    assert lines[0] == "r,f,N" and len(lines) > 2
    assert all(line.count(",") == 2 for line in lines[1:-1])
    assert lines[-1] == "# truncated"
    assert "of 9 coefficients" in err
    rc, out, _ = run_main(capsys, argv + ["--format", "json"])
    assert rc == 2
    rows = [json.loads(line) for line in out.splitlines()]
    # the same rows without the CSV header, then the marker
    assert len(rows) == len(lines) - 1
    assert all(sorted(row) == ["N", "f", "r"] for row in rows[:-1])
    assert rows[-1] == {"truncated": True}


def test_series_has_no_rank_cap(capsys):
    # series computes count's cells: no rank cap, only --budget bounds it
    rc, out, _ = run_main(capsys, ["series", "--n", "5", "--r-max", "3"])
    assert rc == 0
    rc, counted, _ = run_main(
        capsys, ["count", "--n", "5", "--r", "1..3", "--method", "unital",
                 "--format", "csv"])
    assert rc == 0
    assert ([line.split(",")[1] for line in out.splitlines()[1:]]
            == [line.split(",")[4] for line in counted.splitlines()[1:]])
    with pytest.raises(SystemExit) as exc:
        cli.main(["series", "--n", "5", "--r-max", "3", "--max-n", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ------------------------------------------------------------- bad arguments

def test_bad_range_syntax_exits_two():
    for bad in ("x", "3..", "5..2", ""):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", "--n", bad, "--r", "1"])
        assert exc.value.code == 2


_VALID_ARGV = {
    "count": ["count", "--n", "1", "--r", "1"],
    "count-corank": ["count-corank", "--ambient", "2", "--corank", "1",
                     "--torsion", "1"],
    "verify": ["verify", "--n", "1", "--k", "1", "--r", "1..2"],
    "partitions": ["partitions", "--n", "1", "--k", "1"],
    "series": ["series", "--n", "2", "--r-max", "2"],
}

# the value-checked options each subcommand takes, as the cli docstring lists
_COUNT_OPTIONS = {
    "count": ("--jobs", "--budget"),
    "count-corank": ("--jobs", "--budget"),
    "verify": ("--jobs", "--budget"),
    "partitions": (),
    "series": ("--jobs", "--budget"),
}
# --bound-multiplier is taken by none: every pivot divides the torsion
_COUNT_FLAGS = ("--jobs", "--bound-multiplier", "--budget")


def _rejection(argv, message):
    return pytest.param(argv, message, id=" ".join(argv))


# a bad count is rejected by the value check where the subcommand takes the
# option, and as an unknown option where it does not
@pytest.mark.parametrize("argv, message", (
    [_rejection(_VALID_ARGV[cmd] + [flag, value],
                "must be at least 1" if flag in _COUNT_OPTIONS[cmd]
                else "unrecognized arguments")
     for cmd in _VALID_ARGV for flag in _COUNT_FLAGS for value in ("0", "-1")]
    + [_rejection(_VALID_ARGV[cmd] + ["--r", "0..2"], "must be at least 1")
       for cmd in ("count", "verify")]
    + [_rejection(_VALID_ARGV["count-corank"] + ["--torsion", "0"],
                  "must be at least 1")]
    # argparse takes "-1..1" for an option unless it is joined to its flag
    + [_rejection(_VALID_ARGV["count"] + ["--n", "-1..1"],
                  "expected one argument"),
       _rejection(_VALID_ARGV["count"] + ["--n=-1..1"], "must be at least 0")]
    + [_rejection(_VALID_ARGV["verify"] + [flag, "-1"], "must be at least 0")
       for flag in ("--n", "--k")]
    + [_rejection(_VALID_ARGV["partitions"] + ["--n", "0"],
                  "must be at least 1"),
       _rejection(_VALID_ARGV["partitions"] + ["--k", "-1"],
                  "must be at least 0")]
    + [_rejection(_VALID_ARGV["series"] + [flag, "0"], "must be at least 1")
       for flag in ("--n", "--r-max")]
    + [_rejection(_VALID_ARGV["count-corank"] + [f"{flag}=-1"],
                  "must be at least 0")
       for flag in ("--ambient", "--corank")]
    + [_rejection(_VALID_ARGV["count"] + ["--jobs", "x"],
                  "expected INT, got 'x'")]
    # too long for a tuple: past sys.maxsize, and past any allocation
    + [_rejection(["verify", "--n", "1", "--k", "1", "--r", f"1..{top}"],
                  "range too long to list")
       for top in (10 ** 19, 10 ** 18)]))
def test_out_of_range_arguments_exit_two_before_any_output(capsys, argv,
                                                           message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err.splitlines()[-1], err


def test_options_a_subcommand_never_reads_exit_two(tmp_path, capsys):
    # each of these used to be accepted and ignored, or read to no effect;
    # series --out is gone, as series writes its rows to stdout
    cache = tmp_path / "counts.jsonl"
    out_file = tmp_path / "series.csv"
    for argv in (_VALID_ARGV["series"] + ["--cache", str(cache)],
                 _VALID_ARGV["series"] + ["--out", str(out_file)],
                 _VALID_ARGV["partitions"] + ["--jobs", "2"],
                 *(_VALID_ARGV[cmd] + ["--cache", str(cache),
                                       "--bound-multiplier", "2"]
                   for cmd in ("count", "count-corank", "verify"))):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments" in err, argv
    assert not cache.exists() and not out_file.exists()


def test_valid_argv_of_the_rejection_test_succeeds(capsys):
    for argv in _VALID_ARGV.values():
        assert cli.main(argv) == 0, argv
    capsys.readouterr()


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


# ------------------------------------------------------------- determinism

def test_jobs_do_not_change_bytes():
    argv = ["verify", "--n", "1..2", "--k", "1", "--r", "1..3",
            "--format", "csv"]
    one = run_cli(argv + ["--jobs", "1"])
    eight = run_cli(argv + ["--jobs", "8"])
    assert one.returncode == eight.returncode == 0
    assert one.stdout == eight.stdout


def test_campaign_blocks_print_the_committed_bytes(capsys):
    # the benchmark's blocks, each verify block and each cold count-corank
    # block, print at --jobs 1 and 2 the stdout committed in
    # perfbench/expected/cli.json, byte for byte and at exit 0
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location(
        "perfbench_common", perfbench / "common.py")
    common = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(common)
    expected = json.loads((perfbench / "expected" / "cli.json").read_text())
    for command, blocks, outs in (
            ("verify", common.CAMPAIGN_ARGS, expected["verify"]),
            ("count-corank", common.CORANK_ARGS, expected["count_corank"])):
        assert len(blocks) == len(outs)
        for args, want in zip(blocks, outs):
            for jobs in ("1", "2"):
                rc, out, _ = run_main(capsys, [command, *args, "--jobs", jobs])
                assert (rc, out) == (0, want), (command, args, jobs)


def test_cold_and_warm_runs_match_bytes(tmp_path):
    cache = str(tmp_path / "counts.jsonl")
    argv = ["count", "--n", "1..2", "--r", "1..8", "--cache", cache,
            "--format", "json"]
    cold = run_cli(argv)
    warm = run_cli(argv)
    assert cold.returncode == warm.returncode == 0
    assert cold.stdout == warm.stdout


# ---------------------------------------------------------------- start-up

# a last stderr line naming the package modules loaded and whether
# dataclasses, datetime, inspect and csv were
REPORT = ("print(sorted(m for m in sys.modules if m.startswith('multlat')),"
          " 'dataclasses' in sys.modules, 'datetime' in sys.modules,"
          " 'inspect' in sys.modules, 'csv' in sys.modules, file=sys.stderr)")
CLI_ONLY = ("['multlat', 'multlat.cache', 'multlat.cli']"
            " False False False False")
# a computing run loads every package module, and still neither
# dataclasses nor inspect; a table run never loads csv
COMPUTING = ("['multlat', 'multlat.cache', 'multlat.cli', 'multlat.enumeration',"
             " 'multlat.intlinalg', 'multlat.lattice', 'multlat.partitions',"
             " 'multlat.scan']"
             " False False False False")
MAIN = ("import sys, multlat.cli\n"
        "rc = multlat.cli.main(sys.argv[1:])\n"
        "sys.stdout.flush()\n" + REPORT + "\nsys.exit(rc)")


def test_import_loads_no_engine():
    proc = run_python(["-c", "import sys, multlat.cli\n" + REPORT])
    assert proc.returncode == 0
    assert proc.stderr.splitlines()[-1] == CLI_ONLY


@pytest.mark.parametrize("argv", [
    ["count", "--n", "2", "--r", "1..3"],
    ["count-corank", "--ambient", "3", "--corank", "1", "--torsion", "1..3"],
])
def test_cache_served_counts_load_no_engine(tmp_path, capsys, argv):
    cache = str(tmp_path / "counts.jsonl")
    rc, _, _ = run_main(capsys, ["verify", "--n", "2", "--k", "0..1",
                                 "--r", "1..3", "--cache", cache])
    assert rc == 0
    rc, cold, _ = run_main(capsys, argv)
    assert rc == 0
    proc = run_python(["-c", MAIN, *argv, "--cache", cache])
    assert proc.returncode == 0
    assert proc.stdout == cold
    assert proc.stderr.splitlines()[-1] == CLI_ONLY


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_computing_run_loads_neither_dataclasses_nor_inspect(jobs):
    proc = run_python(["-c", MAIN, "verify", "--n", "1", "--k", "1..2",
                       "--r", "1..4", "--jobs", jobs])
    assert proc.returncode == 0
    assert proc.stdout.count("pass") == 8
    assert proc.stderr.splitlines()[-1] == COMPUTING
