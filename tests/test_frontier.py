"""The co-rank factorization at ambient 7, past the acceptance campaign.

The campaign (`tests/test_acceptance.py`) stops at ambient 4 and the
full-rank listing (`tests/test_full_rank_census.py`) at n = 6, so a scan
fault that only shows at ambient 7 passes both: skipping the entry 1 in a
pivot column of pivot 2 from ambient 7 on leaves every smaller cell
untouched. Each cell here takes its census at ambient 7 and its full-rank
side at n <= 6, so such a fault moves the census and not the formula, and
the cell fails. The counts are the reports the verifier gives; the
full-rank count at (6, 4) is the one `test_full_rank_census.py` lists.
"""

import pytest

from multlat.enumeration import VerificationReport, verify_corank_factorization

# (n, k, r) -> (stirling2(n+k+1, n+1), count_full_rank(n, r))
CELLS = {(6, 1, 2): (28, 21), (5, 2, 2): (266, 15), (6, 1, 4): (28, 161)}


@pytest.mark.parametrize("n, k, r", sorted(CELLS))
def test_ambient_seven_census_is_stirling_times_full_rank(n, k, r):
    stirling_factor, full_rank = CELLS[(n, k, r)]
    count = stirling_factor * full_rank
    assert verify_corank_factorization(n, k, r) == VerificationReport(
        n=n, k=k, r=r, oracle_count=count, formula_count=count,
        stirling_factor=stirling_factor, full_rank_count=full_rank,
        witnesses_checked=count, status="pass")
