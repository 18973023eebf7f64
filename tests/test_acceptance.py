"""Acceptance gate.

One test per release criterion, numbered; run with `pytest -v` so each
verbose line doubles as the criterion's pass/fail verdict. Every comparison
is exact integer equality. The verification campaign shared by several
criteria is enumerated once per module in the fixture below.
"""

import csv
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from multlat.enumeration import (
    count_full_rank,
    count_unital,
    decompose,
    enumerate_corank_oracle,
    enumerate_full_rank_multiplicative,
    reconstruct_from_factorization,
    verify_corank_factorization,
)
from multlat.lattice import (
    distinct_nonzero_columns,
    has_rigid_columns,
    lattice_from_rows,
    torsion_size,
)
from multlat.partitions import (
    apply_map,
    enumerate_ordered_maps,
    enumerate_partitions,
    stirling2,
)

# the verification campaign: every (n, k, r) cell the release must pass
CAMPAIGN_CELLS = tuple(
    [(1, k, r) for k in (1, 2, 3) for r in range(1, 11)]
    + [(2, k, r) for k in (1, 2) for r in range(1, 9)]
    + [(3, 1, r) for r in range(1, 5)]
)

# the same cells grouped into rectangular ranges for command-line runs
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


@pytest.fixture(scope="module")
def campaign():
    """Census of every campaign cell at the base bound, keyed by (n, k, r)."""
    return {
        (n, k, r): enumerate_corank_oracle(n + k, k, r)
        for n, k, r in CAMPAIGN_CELLS
    }


def run_cli(argv):
    # the checkout's src first, so no installed copy answers in its place
    src = str(Path(__file__).resolve().parents[1] / "src")
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
    return subprocess.run(
        [sys.executable, "-m", "multlat.cli", *argv],
        capture_output=True, text=True, timeout=1800, env=env)


def test_criterion_01_rank_one_counts_are_all_one():
    t0 = time.monotonic()
    for r in range(1, 101):
        assert count_full_rank(1, r) == 1
    assert time.monotonic() - t0 < 1.0


def test_criterion_02_corank_zero_census_equals_full_rank_census():
    for n in (1, 2, 3):
        for r in range(1, 9):
            assert enumerate_corank_oracle(n, 0, r) == \
                enumerate_full_rank_multiplicative(n, r), (n, r)


def test_criterion_03_unital_count_shifts_the_dimension():
    t0 = time.monotonic()
    for n in (2, 3, 4):
        for r in range(1, 17):
            assert count_unital(n, r) == count_full_rank(n - 1, r), (n, r)
    assert time.monotonic() - t0 < 600


def test_criterion_04_verification_campaign_passes_under_both_bounds():
    t0 = time.monotonic()
    for bound_multiplier in (1, 2):
        for n, k, r in CAMPAIGN_CELLS:
            report = verify_corank_factorization(n, k, r, bound_multiplier)
            assert report.status == "pass", (n, k, r, bound_multiplier)
            assert report.oracle_count == report.formula_count
            assert report.formula_count == \
                report.stirling_factor * report.full_rank_count
    assert time.monotonic() - t0 < 1800


def test_criterion_05_rigidity_and_rebasing_invariance(campaign):
    pool = []
    for cell, lats in campaign.items():
        for lat in lats:
            assert has_rigid_columns(lat), cell
            assert distinct_nonzero_columns(lat) == lat.rank, cell
            if lat.rank:
                pool.append(lat)
    rng = random.Random(20260821)
    for lat in rng.sample(pool, 24):
        rows = [list(row) for row in lat.basis]
        nrows = len(rows)
        for _ in range(1000):
            op = rng.randrange(3) if nrows > 1 else 2
            if op == 0:
                i, j = rng.sample(range(nrows), 2)
                c = rng.choice((-2, -1, 1, 2))
                rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
            elif op == 1:
                i, j = rng.sample(range(nrows), 2)
                rows[i], rows[j] = rows[j], rows[i]
            else:
                i = rng.randrange(nrows)
                rows[i] = [-x for x in rows[i]]
            cols = {
                tuple(row[j] for row in rows)
                for j in range(lat.ambient_dim)
            }
            cols.discard((0,) * nrows)
            # the distinct-column count survives every change of basis
            assert len(cols) == lat.rank


def test_criterion_06_corank_one_witnesses_degenerate_one_column(campaign):
    for ambient in (1, 2, 3, 4):
        for r in range(1, 9):
            key = (ambient - 1, 1, r)
            lats = campaign.get(key)
            if lats is None:
                lats = enumerate_corank_oracle(ambient, 1, r)
            for lat in lats:
                cols = [
                    tuple(row[j] for row in lat.basis)
                    for j in range(ambient)
                ]
                zero = (0,) * lat.rank
                assert any(c == zero for c in cols) \
                    or len(set(cols)) < ambient, (ambient, r, lat.basis)


def test_criterion_07_image_torsion_equals_the_core_index():
    rng = random.Random(20260822)
    censuses = {}
    for _ in range(500):
        n = rng.randint(1, 3)
        r = rng.randint(1, 50)
        if (n, r) not in censuses:
            censuses[(n, r)] = enumerate_full_rank_multiplicative(n, r)
        lats = censuses[(n, r)]
        assert lats, "full-rank census unexpectedly empty"
        lat = rng.choice(lats)
        for k in (0, 1, 2):
            for g in enumerate_ordered_maps(n, n + k):
                assert torsion_size(apply_map(g, lat)) == r, (n, r, k)


def test_criterion_08_decomposition_is_a_bijection(campaign):
    # every (map, core) pair with total dimension at most 5 round-trips
    for n in range(0, 6):
        cores = []
        for r in range(1, 7):
            if n == 0:
                cores = enumerate_corank_oracle(0, 0, 1)
                break
            cores.extend(enumerate_full_rank_multiplicative(n, r))
        for k in range(0, 6 - n):
            for g in enumerate_ordered_maps(n, n + k):
                for core in cores:
                    lat = apply_map(g, core)
                    assert decompose(lat) == (g, core), (n, k)
    # and on every campaign cell the images reproduce the census exactly
    for (n, k, r), lats in campaign.items():
        rebuilt = reconstruct_from_factorization(n, k, r)
        assert len(rebuilt) == len(set(rebuilt)), (n, k, r)
        assert set(rebuilt) == set(lats), (n, k, r)


def test_criterion_09_map_counts_match_the_subset_numbers():
    for total in range(1, 9):
        for n in range(0, total + 1):
            maps = list(enumerate_ordered_maps(n, total))
            assert len(maps) == stirling2(total + 1, n + 1), (n, total)
    for u in range(1, 10):
        for v in range(1, u + 1):
            direct = sum(1 for _ in enumerate_partitions(u, v))
            assert stirling2(u, v) == direct, (u, v)
    golden = Path(__file__).parent / "data" / "a008277.csv"
    with golden.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 55
    for rec in rows:
        assert stirling2(int(rec["u"]), int(rec["v"])) == int(rec["value"])


def test_criterion_10_byte_level_determinism(tmp_path):
    # worker count must not leak into the output
    outputs = []
    for jobs in ("1", "8"):
        chunks = []
        for block in CAMPAIGN_ARGS:
            proc = run_cli(["verify", *block, "--jobs", jobs,
                            "--format", "csv"])
            assert proc.returncode == 0, proc.stderr
            chunks.append(proc.stdout)
        outputs.append("".join(chunks))
    assert outputs[0] == outputs[1]
    # a cold run that fills the cache and a warm run that reads it agree
    cache = str(tmp_path / "counts.jsonl")
    runs = []
    for _ in ("cold", "warm"):
        chunks = []
        for block in CORANK_ARGS:
            proc = run_cli(["count-corank", *block, "--cache", cache,
                            "--format", "csv"])
            assert proc.returncode == 0, proc.stderr
            chunks.append(proc.stdout)
        runs.append("".join(chunks))
    assert runs[0] == runs[1]


def test_criterion_11_census_closed_under_coordinate_permutations(campaign):
    # permuting coordinates is a ring automorphism of Z^m, so it keeps
    # multiplicativity, rank and torsion, and each cell's census is closed
    # under the transposition (0 1) and the m-cycle, which generate every
    # permutation; a scan that misses a lattice in one coordinate order but
    # not in another fails here without reading any formula
    for (n, k, r), lats in campaign.items():
        m = n + k
        census = set(lats)
        for perm in ((1, 0, *range(2, m)), (*range(1, m), 0)):
            for lat in lats:
                image = lattice_from_rows(
                    m, [[row[j] for j in perm] for row in lat.basis])
                assert image in census, ((n, k, r), lat.basis, perm)
