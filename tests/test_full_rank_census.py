"""The full-rank census against a listing that shares no step with it.

The full-rank census is the co-rank scan at co-rank 0, so both engines run
one worker, and a lattice that the worker misses could go missing from both
sides of the factorization at once. Here every upper-triangular Hermite
basis of determinant r is listed outright, pivots and reduced entries
alike, and kept when the lattice predicates accept it; the set must be the
engine's census, basis for basis. This listing is the one check of the
formula side that shares no code with the scan. The cells are beyond the
reach of refimpl's rational filter. Three of them mix primes, (5, 6),
(3, 18) and (4, 12); a scan that drops the multiple a pivot entry carries
to the rows it builds misses a lattice at (3, 18) alone.
"""

import itertools
import math

import pytest

from multlat.enumeration import enumerate_full_rank_multiplicative
from multlat.lattice import Lattice, is_multiplicative

# (n, r) -> number of full-rank multiplicative sublattices of Z^n of index r
CELLS = {(3, 18): 78, (4, 8): 85, (4, 12): 350, (4, 16): 201, (5, 2): 15,
         (5, 4): 80, (5, 6): 225, (5, 8): 255, (6, 2): 21, (6, 4): 161,
         (6, 8): 686}


def hermite_bases(n, r):
    """Every upper-triangular Hermite basis of Z^n with determinant r: a
    positive diagonal with product r, each entry above a pivot in
    [0, pivot), every entry below the diagonal zero."""
    divisors = [d for d in range(1, r + 1) if r % d == 0]
    above = [(i, j) for j in range(n) for i in range(j)]
    for diagonal in itertools.product(divisors, repeat=n):
        if math.prod(diagonal) != r:
            continue
        for entries in itertools.product(*(range(diagonal[j])
                                           for _, j in above)):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = diagonal[i]
            for (i, j), x in zip(above, entries):
                rows[i][j] = x
            yield tuple(map(tuple, rows))


@pytest.mark.parametrize("n, r", sorted(CELLS))
def test_full_rank_census_is_every_closed_hermite_basis(n, r):
    listed = set()
    for basis in hermite_bases(n, r):
        lat = Lattice(n, basis)
        if is_multiplicative(lat):
            listed.add(lat.basis)
    census = [lat.basis for lat in enumerate_full_rank_multiplicative(n, r)]
    assert len(listed) == CELLS[(n, r)]
    assert set(census) == listed
    assert len(census) == len(listed)

