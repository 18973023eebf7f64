"""Command-line behavior: formats, exit codes, caching, determinism.

In-process main() calls cover the fast paths; the determinism checks that
compare whole invocations byte for byte go through subprocesses.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multlat.cli as cli
import multlat.enumeration as enumeration
from multlat import ENGINE_VERSION
from multlat.enumeration import VerificationReport
from multlat.lattice import lattice_from_rows


def run_python(args):
    # the checkout's src first, so no installed copy answers in its place
    src = str(Path(__file__).resolve().parents[1] / "src")
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, timeout=600, env=env)


def run_cli(argv):
    return run_python(["-m", "multlat.cli", *argv])


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
    # whichever method is requested, k = 0 cells are full-rank counts
    rc, out, _ = run_main(
        capsys,
        ["count-corank", "--ambient", "2", "--corank", "0", "--torsion", "4",
         "--method", "formula", "--format", "csv"])
    assert rc == 0
    assert out.splitlines()[1] == "2,0,4,oracle,4,ok"


def test_count_corank_bad_corank(capsys):
    rc, _, err = run_main(
        capsys,
        ["count-corank", "--ambient", "2", "--corank", "3", "--torsion", "1"])
    assert rc == 2
    assert "usage error" in err


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
    monkeypatch.setattr(enumeration, "verify_corank_factorization",
                        lambda *a, **kw: bad)
    monkeypatch.setattr(enumeration, "find_counterexample",
                        lambda *a, **kw: (witness, "synthetic reason"))
    rc, out, err = run_main(
        capsys,
        ["verify", "--n", "2", "--k", "1", "--r", "2", "--format", "csv"])
    assert rc == 1
    assert out.splitlines()[1].endswith("fail")
    assert 'counterexample: {"ambient": 3' in err
    assert "reason: synthetic reason" in err
    assert "FAILED at n=2 k=1 r=2" in err


def _swap_into_census(monkeypatch, lat, last=False):
    # the verifier takes its witnesses from the census before any check;
    # lat replaces the first witness, or with last the last one, so that
    # every closed witness before it has been checked
    census = enumeration._census
    monkeypatch.setattr(
        enumeration, "_census",
        lambda *a, **kw: (census(*a, **kw)[:-1] + [lat] if last
                          else [lat] + census(*a, **kw)[1:]))


def test_verify_reports_a_non_rigid_witness(capsys, monkeypatch):
    # a lattice without rigid columns swapped into a real census must fail
    # the cell through the verifier's own checks, not a forced report; no
    # multiplicative lattice lacks rigid columns, so this one is accepted
    # as multiplicative by hand
    non_rigid = lattice_from_rows(3, [(1, 2, 3), (0, 0, 2)])
    _swap_into_census(monkeypatch, non_rigid)
    accept = enumeration.is_multiplicative
    monkeypatch.setattr(enumeration, "is_multiplicative",
                        lambda lat: lat == non_rigid or accept(lat))
    rc, out, err = run_main(
        capsys,
        ["verify", "--n", "2", "--k", "1", "--r", "2", "--format", "csv"])
    assert rc == 1
    assert out.splitlines()[1].endswith("fail")
    assert ("counterexample: "
            + json.dumps(non_rigid.as_dict(), sort_keys=True)) in err
    assert "reason: column count differs from rank" in err
    assert "FAILED at n=2 k=1 r=2" in err


def test_verify_rejects_a_non_multiplicative_witness(capsys, monkeypatch):
    # a witness that is not closed under products is an engine fault, not
    # a counterexample: its pivot square fails the re-verification
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
    # the verifier checks each core once; a witness after every closed one
    # is still checked on its own
    non_rigid = lattice_from_rows(3, [(1, 2, 3), (0, 0, 2)])
    _swap_into_census(monkeypatch, non_rigid, last=True)
    accept = enumeration.is_multiplicative
    monkeypatch.setattr(enumeration, "is_multiplicative",
                        lambda lat: lat == non_rigid or accept(lat))
    rc, out, err = run_main(
        capsys,
        ["verify", "--n", "2", "--k", "1", "--r", "2", "--format", "csv"])
    assert rc == 1
    assert out.splitlines()[1].endswith("fail")
    assert ("counterexample: "
            + json.dumps(non_rigid.as_dict(), sort_keys=True)) in err
    assert "reason: column count differs from rank" in err


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

    monkeypatch.setattr(enumeration, "_reverify", broken)
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


def test_a_lattice_found_twice_exits_three(capsys, monkeypatch):
    # either engine's repeat is a failed self-check, at exit status 3
    for name, argv in (
            ("_full_rank_worker", ["count", "--n", "2", "--r", "2"]),
            ("_corank_worker", ["count-corank", "--ambient", "3",
                                "--corank", "1", "--torsion", "2"])):
        worker = getattr(enumeration, name)
        with monkeypatch.context() as patched:
            patched.setattr(enumeration, name,
                            lambda args, worker=worker: worker(args) * 2)
            rc, out, err = run_main(capsys, argv)
        assert rc == 3, name
        assert out == ""
        assert err == "internal error: engine produced a lattice twice\n"


# -------------------------------------------------------------- partitions

def test_partitions_listing(capsys):
    rc, out, err = run_main(capsys, ["partitions", "--n", "1", "--k", "1"])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert "3 rows, Stirling value 3" in err


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


def test_series_to_file_with_truncation(tmp_path, capsys):
    out_path = tmp_path / "series.csv"
    rc, out, err = run_main(
        capsys,
        ["series", "--n", "3", "--r-max", "9", "--family", "full-rank",
         "--budget", "50", "--out", str(out_path)])
    assert rc == 2
    assert out == ""
    text = out_path.read_text()
    assert text.startswith("r,f,N\n")
    assert text.endswith("# truncated\n")
    assert "of 9 coefficients" in err


def test_series_bad_out_path_fails_before_computing(tmp_path, capsys,
                                                   monkeypatch):
    def computed(*args, **kwargs):
        raise AssertionError("series computed before opening --out")

    monkeypatch.setattr(enumeration, "count_unital", computed)
    rc, out, err = run_main(
        capsys,
        ["series", "--n", "2", "--r-max", "3",
         "--out", str(tmp_path / "missing" / "x.csv")])
    assert rc == 2
    assert out == ""
    assert err.startswith("io error:")
    assert err.count("\n") == 1


def test_series_refuses_large_rank(capsys):
    rc, _, err = run_main(capsys, ["series", "--n", "5", "--r-max", "3"])
    assert rc == 2
    assert "usage error" in err
    rc, _, _ = run_main(
        capsys, ["series", "--n", "5", "--r-max", "3", "--max-n", "5"])
    assert rc == 0


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
       for flag in ("--n", "--k")]))
def test_out_of_range_arguments_exit_two_before_any_output(capsys, argv,
                                                           message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err.splitlines()[-1], err


def test_options_a_subcommand_never_reads_exit_two(tmp_path, capsys):
    # each of these used to be accepted and ignored, or read to no effect
    cache = tmp_path / "counts.jsonl"
    for argv in (_VALID_ARGV["series"] + ["--cache", str(cache)],
                 _VALID_ARGV["partitions"] + ["--jobs", "2"],
                 *(_VALID_ARGV[cmd] + ["--cache", str(cache),
                                       "--bound-multiplier", "2"]
                   for cmd in ("count", "count-corank", "verify"))):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments" in err, argv
    assert not cache.exists()


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
# dataclasses, datetime and inspect were
REPORT = ("print(sorted(m for m in sys.modules if m.startswith('multlat')),"
          " 'dataclasses' in sys.modules, 'datetime' in sys.modules,"
          " 'inspect' in sys.modules, file=sys.stderr)")
CLI_ONLY = "['multlat', 'multlat.cache', 'multlat.cli'] False False False"
# a computing run loads every package module, and still neither
# dataclasses nor inspect
COMPUTING = ("['multlat', 'multlat.cache', 'multlat.cli', 'multlat.enumeration',"
             " 'multlat.intlinalg', 'multlat.lattice', 'multlat.partitions']"
             " False False False")
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
