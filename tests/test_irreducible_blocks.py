"""Liu's irreducible blocks: a check of the full-rank census out to n = 9.

Let L be a unital subring of Z^n of index p^e. L tensored with Z_p is a
product of local rings, whose idempotents are 0/1 vectors; they lie in L,
since L contains p^e Z^n. So L is the direct sum of its projections onto
the blocks of one coordinate partition, and each projection is irreducible:
its only 0/1 vectors are 0 and (1, ..., 1). With g_m(p^j) the number of
irreducible unital subrings of Z^m of index p^j, and u_n(p^e) the number of
all unital ones, the block that holds coordinate 1 gives

    u_n(p^e) = sum over i = 1..n of C(n-1, i-1)
               * sum over j of g_i(p^j) * u_{n-i}(p^(e-j)),

with u_0(p^e) = [e = 0] (R. I. Liu, "Counting subrings of Z^n of index k",
JCTA 114, 2007). An irreducible block of Z^m has index at least p^(m-1)
(Liu; the first test checks it at m <= 4), so u_n(p^e) needs g only at
m <= e + 1, whatever n is. Each g is counted here from the engine's census
of Z^m at m <= 5, with the 0/1 vectors tested by a reduction written in
this module, and the recursion then predicts count_full_rank(n, p^e) =
u_{n+1}(p^e) at ambients the small censuses never reach. No g value is
written down.
"""

from functools import lru_cache
from itertools import product
from math import comb

import pytest

from multlat.enumeration import (count_full_rank,
                                 enumerate_full_rank_multiplicative)


def _contains(basis, v):
    """Whether v lies in the span of a full-rank Hermite basis, which is
    upper triangular: clear v one column at a time."""
    v = list(v)
    for i, row in enumerate(basis):
        q, rem = divmod(v[i], row[i])
        if rem:
            return False
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return True


@lru_cache(maxsize=None)
def irreducible(m, index):
    """g_m(index): the unital lattices in the engine's census of Z^m whose
    only 0/1 vectors are 0 and (1, ..., 1)."""
    cube = list(product((0, 1), repeat=m))
    count = 0
    for lat in enumerate_full_rank_multiplicative(m, index):
        if _contains(lat.basis, (1,) * m):
            count += sum(_contains(lat.basis, v) for v in cube) == 2
    return count


@lru_cache(maxsize=None)
def unital(n, p, e):
    """u_n(p^e) by Liu's recursion, skipping the blocks of index below
    p^(i-1), which are empty."""
    if n == 0:
        return int(e == 0)
    return sum(comb(n - 1, i - 1) * irreducible(i, p ** j)
               * unital(n - i, p, e - j)
               for i in range(1, n + 1) for j in range(i - 1, e + 1))


@pytest.mark.parametrize("p", [2, 3])
def test_an_irreducible_block_of_z_m_has_index_at_least_p_to_m_minus_1(p):
    for m in range(1, 5):
        for j in range(m - 1):
            assert irreducible(m, p ** j) == 0, (m, p ** j)
        # and the bound is met
        if p ** (m - 1) <= 27:
            assert irreducible(m, p ** (m - 1)) > 0, (m, p ** (m - 1))


@pytest.mark.parametrize("n, p, e, count", [
    (6, 2, 3, 686),
    (7, 2, 3, 1666),
    (8, 2, 3, 3690),
    (9, 2, 3, 7545),
    (6, 2, 4, 2282),
    (5, 3, 4, 921),
    (7, 3, 2, 294),
])
def test_irreducible_blocks_predict_the_full_rank_census(n, p, e, count):
    assert unital(n + 1, p, e) == count_full_rank(n, p ** e) == count
