"""The co-rank factorization along the torsion axis, past r = 10.

The campaign (`tests/test_acceptance.py`) and the ambient-7 cells
(`tests/test_frontier.py`) stop at r = 10. The scan's off-pivot entries are
the integer roots of x(x - d) = acc, found from the discriminant
d*d + 4*acc, and large leads and accumulators give discriminants that small
torsion never reaches: a scan that drops the roots once the discriminant
reaches 1000 passes every cell up to r = 10 and fails (1,1,32). Every cell
with n, k in {1, 2} and r <= 64 is verified here, plus (3,1,121) and
(2,2,169), whose torsion is the square of a prime past the campaign's.
"""

from multlat.enumeration import _verify

CELLS = ([(n, k, r) for n in (1, 2) for k in (1, 2) for r in range(1, 65)]
         + [(3, 1, 121), (2, 2, 169)])


def test_every_cell_of_the_torsion_axis_block_passes():
    failed = []
    for n, k, r in CELLS:
        report, offender = _verify(n, k, r, jobs=1, budget=None)
        if report.status != "pass" or offender is not None:
            failed.append((report, offender))
    assert not failed, failed[0]
