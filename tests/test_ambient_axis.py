"""The co-rank factorization along the ambient axis, out to ambient 13.

The campaign (`tests/test_acceptance.py`) stops at ambient 4 and
`tests/test_frontier.py` at ambient 8, so a scan fault that shows only
from ambient 10 on passes both. Small torsion keeps a large ambient cheap:
every cell here is verified in process, k = 1 at r in {2, 3} for n = 8..12
(ambient 9 to 13), and n = 1 at r in {2, 3, 4} for k = 7..12 (ambient 8
to 13).

Every torsion here is prime or n is 1, so each cell's full-rank count is
also checked against a closed form that does not come from the scan: Z^n
has C(n+1, 2) subrings of prime index p, and Z^1 has one of every index.

A scan that skips the entry 1 in a pivot column of pivot 2 from ambient
10 on fails (9,1,2) on its count, census against formula. At n >= 10 the
fault moves the full-rank side too, as it is the same scan, so census and
formula agree, and only the closed form fails (10,1,2), (11,1,2) and
(12,1,2); at n = 1 the rank-1 worker has no pivot column to try entries
in. Cells with k = 2 or composite torsion at ambient 10 and over are left
out: in process (8,2,2) takes about 2 s, (9,1,4) about 3 s, and (7,3,2)
and (2,8,2) tens of seconds.
"""

from math import comb

from multlat.enumeration import _verify

CELLS = ([(n, 1, r) for n in range(8, 13) for r in (2, 3)]
         + [(1, k, r) for k in range(7, 13) for r in (2, 3, 4)])


def test_every_cell_of_the_ambient_axis_block_passes():
    failed = []
    for n, k, r in CELLS:
        report, offender = _verify(n, k, r, jobs=1, budget=None)
        if (report.status != "pass" or offender is not None
                or report.full_rank_count != comb(n + 1, 2)):
            failed.append((report, offender))
    assert not failed, failed[0]
