"""The rank-2 censuses against an independent closed form.

The subrings of Z^3 with unit have the zeta function

    zeta(s)^3 zeta(3s - 1) / zeta(2s)^2,

by Datskovsky and Wright, as given in R. I. Liu, "Counting subrings of Z^n
of index k", JCTA 114 (2007). Its coefficient at r is `count_unital(3, r)`,
which equals `count_full_rank(2, r)`, and so the co-rank census of rank 2
and torsion r in Z^(2+k) holds S(k+3, 3) times it. The coefficients are
built here as integer Dirichlet convolutions of three series: d_3, the
coefficients of zeta(s)^3; m at r = m^3, of zeta(3s - 1); and (mu*mu)(m) at
r = m^2, of 1/zeta(2s)^2. No count from the package is written down, and
the Stirling factor comes from `refimpl`, so this formula side shares no
code with the scan or with the package's own formula side.
"""

import pytest

from multlat.enumeration import _census, count_full_rank, count_unital
from refimpl import stirling_ref

LIMIT = 200


def convolve(f, g):
    """The Dirichlet convolution of f and g, lists indexed from 1 (index 0
    unused), up to their common length."""
    h = [0] * len(f)
    for a in range(1, len(f)):
        if f[a]:
            for b in range(1, (len(f) - 1) // a + 1):
                h[a * b] += f[a] * g[b]
    return h


def moebius(limit):
    """mu(1..limit), index 0 unused: the Dirichlet inverse of 1."""
    mu = [0, 1] + [0] * (limit - 1)
    for a in range(1, limit + 1):
        for multiple in range(2 * a, limit + 1, a):
            mu[multiple] -= mu[a]
    return mu


def zeta_coefficients(limit):
    """The coefficients of zeta(s)^3 zeta(3s - 1) / zeta(2s)^2 at 1..limit,
    index 0 unused."""
    ones = [0] + [1] * limit
    d3 = convolve(ones, convolve(ones, ones))
    mu = moebius(limit)
    mumu = convolve(mu, mu)
    cubes = [0] * (limit + 1)
    squares = [0] * (limit + 1)
    for m in range(1, limit + 1):
        if m ** 3 <= limit:
            cubes[m ** 3] = m
        if m * m <= limit:
            squares[m * m] = mumu[m]
    return convolve(convolve(d3, cubes), squares)


COEFFICIENTS = zeta_coefficients(LIMIT)


def test_the_convolutions_are_the_series_they_name():
    # mu is 0 off the squarefree numbers and (-1)^(prime factors) on them;
    # d_3 at a prime power p^e is (e + 1)(e + 2)/2
    assert moebius(12)[1:] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    ones = [0] + [1] * 16
    d3 = convolve(ones, convolve(ones, ones))
    assert [d3[2 ** e] for e in range(5)] == [1, 3, 6, 10, 15]
    assert d3[6] == 9


def test_full_rank_two_is_the_closed_form():
    assert [count_full_rank(2, r) for r in range(1, LIMIT + 1)] == (
        COEFFICIENTS[1:])


def test_unital_three_is_the_closed_form():
    assert [count_unital(3, r) for r in range(1, 101)] == COEFFICIENTS[1:101]


@pytest.mark.parametrize("k, r_max", [(1, 64), (2, 32), (3, 16)])
def test_rank_two_corank_census_is_stirling_times_the_closed_form(k, r_max):
    factor = stirling_ref(k + 3, 3)
    assert [len(_census(2 + k, k, r, jobs=1, budget=None))
            for r in range(1, r_max + 1)] == [
        factor * c for c in COEFFICIENTS[1:r_max + 1]]
