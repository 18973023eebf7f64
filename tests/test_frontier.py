"""The co-rank factorization at ambient 7, past the acceptance campaign.

The campaign (`tests/test_acceptance.py`) stops at ambient 4 and the
full-rank listing (`tests/test_full_rank_census.py`) at n = 6, so a scan
fault that only shows at ambient 7 passes both: skipping the entry 1 in a
pivot column of pivot 2 from ambient 7 on leaves every smaller cell
untouched. Each cell here takes its census at ambient 7 and its full-rank
side at n <= 6, so such a fault moves the census and not the formula, and
the cell fails. The counts are the reports the verifier gives; each cell's
full-rank count is one that `test_full_rank_census.py` lists. The censuses
are also closed under coordinate permutations (acceptance criterion 11),
and a command-line block out to ambient 8 prints the same bytes at any
worker count.
"""

import pytest

from multlat.enumeration import (
    VerificationReport,
    enumerate_corank_oracle,
    verify_corank_factorization,
)
from multlat.lattice import lattice_from_rows

from test_acceptance import run_cli

# (n, k, r) -> (stirling2(n+k+1, n+1), count_full_rank(n, r))
CELLS = {(6, 1, 2): (28, 21), (5, 2, 2): (266, 15), (6, 1, 4): (28, 161)}

# the cells of `verify --n 5..6 --k 1..2 --r 2`, at ambient 6, 7 and 8
CLI_CELLS = {(5, 1, 2): (21, 15), (5, 2, 2): (266, 15),
             (6, 1, 2): (28, 21), (6, 2, 2): (462, 21)}


@pytest.mark.parametrize("n, k, r", sorted(CELLS))
def test_ambient_seven_census_is_stirling_times_full_rank(n, k, r):
    stirling_factor, full_rank = CELLS[(n, k, r)]
    count = stirling_factor * full_rank
    assert verify_corank_factorization(n, k, r) == VerificationReport(
        n=n, k=k, r=r, oracle_count=count, formula_count=count,
        stirling_factor=stirling_factor, full_rank_count=full_rank,
        witnesses_checked=count, status="pass")


@pytest.mark.parametrize("n, k, r", sorted(CELLS))
def test_ambient_seven_census_is_closed_under_coordinate_permutations(n, k, r):
    # the transposition (0 1) and the m-cycle generate every permutation
    m = n + k
    lats = enumerate_corank_oracle(m, k, r)
    census = set(lats)
    for perm in ((1, 0, *range(2, m)), (*range(1, m), 0)):
        for lat in lats:
            image = lattice_from_rows(
                m, [[row[j] for j in perm] for row in lat.basis])
            assert image in census, (lat.basis, perm)


def test_cli_block_passes_with_the_same_bytes_at_any_jobs():
    outputs = []
    for jobs in ("1", "2"):
        proc = run_cli(["verify", "--n", "5..6", "--k", "1..2", "--r", "2",
                        "--jobs", jobs])
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    header, *rows = [line.split() for line in outputs[0].splitlines()]
    assert header[:4] == ["n", "k", "r", "oracle_count"]
    assert header[-1] == "status"
    got = {tuple(map(int, row[:3])): (int(row[3]), row[-1]) for row in rows}
    assert len(got) == len(rows)
    assert got == {cell: (s * f, "pass")
                   for cell, (s, f) in CLI_CELLS.items()}
