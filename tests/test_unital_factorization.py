"""The co-rank factorization in the form the paper states it: for subrings.

A subring of Z^(n+k) contains the identity (1, ..., 1). Every lattice of
the co-rank census is g(C) for one ordered acceptable map g and one
full-rank core C (`decompose`), and g(C) contains (1, ..., 1) exactly when
g labels no coordinate 0 and C contains (1, ..., 1) in Z^n. The maps with
no 0 label are the ordered set partitions of n+k coordinates into n
blocks, S(n+k, n) of them, so

    #{L in census(n+k, k, r) : (1, ..., 1) in L} = S(n+k, n) * count_unital(n, r).

Both sides are checked here on every cell with n <= 3, k <= 3,
1 <= n+k <= 5 and r <= 8, with membership decided by the reference's
rational elimination (`refimpl.int_membership`), which shares no code with
the package. No library code states this form; the census, the Stirling
numbers and `count_unital` are the package's own.
"""

import pytest

from multlat.enumeration import count_unital, decompose, enumerate_corank_oracle
from multlat.partitions import stirling2

from refimpl import int_membership

CELLS = [(n, k) for n in range(4) for k in range(4) if 1 <= n + k <= 5]
TORSIONS = range(1, 9)


def contains_ones(lat):
    """Does lat contain the all-ones vector of its ambient space?"""
    if lat.rank == 0:
        # the zero lattice; only Z^0 has its ones vector, (), in it
        return lat.ambient_dim == 0
    return int_membership(lat.basis, (1,) * lat.ambient_dim)


@pytest.mark.parametrize("n, k", CELLS)
def test_unital_census_is_stirling_times_unital_count(n, k):
    for r in TORSIONS:
        census = enumerate_corank_oracle(n + k, k, r)
        unital = sum(contains_ones(lat) for lat in census)
        assert unital == stirling2(n + k, n) * count_unital(n, r), (n, k, r)


@pytest.mark.parametrize("n, k", CELLS)
def test_ones_lie_in_a_lattice_exactly_when_map_and_core_allow(n, k):
    for r in TORSIONS:
        for lat in enumerate_corank_oracle(n + k, k, r):
            g, core = decompose(lat)
            assert contains_ones(lat) == (0 not in g.assignment
                                          and contains_ones(core)), lat
