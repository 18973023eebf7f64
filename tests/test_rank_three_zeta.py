"""The rank-3 censuses against an independent closed form.

The subrings of Z^4 with unit, the orders of Q^4, have an Euler product
whose factor at p is, with x = p^(-s),

    N_p(x) / ((1 - x)^2 (1 - p^2 x^4) (1 - p^3 x^6)),
    N_p(x) = 1 + 4x + 2x^2 + (4p - 3)x^3 + (5p - 1)x^4 + (p^2 - 5p)x^5
             + (3p^2 - 4p)x^6 + (terms of degree 7 and more),

from J. Nakagawa's memoir on orders of quartic algebras (Mem. AMS 122,
1996, no. 583), as given in R. I. Liu, "Counting subrings of Z^n of index
k", JCTA 114 (2007). Its coefficient at r is `count_unital(4, r)`, which
equals `count_full_rank(3, r)`, and so the co-rank census of rank 3 and
torsion r in Z^(3+k) holds S(k+4, 4) times it. The numerator stops at x^6
on purpose: only those terms are written down, so only torsions free of
seventh powers are checked. The local factors are built here as integer
power series, and r's coefficient is their product over the primes
dividing r. No count from the package is written down, and the Stirling
factor comes from `refimpl`, so this formula side shares no code with the
scan or with the package's own formula side.
"""

import pytest

from multlat.enumeration import _census, count_full_rank, count_unital
from refimpl import stirling_ref

# the highest power of x the numerator is known to
DEGREE = 6
LIMIT = 200


def times(f, g):
    """The product of two power series, coefficient lists from x^0,
    truncated at x^DEGREE."""
    h = [0] * (DEGREE + 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g[:DEGREE + 1 - i]):
            h[i + j] += a * b
    return h


def numerator(p):
    return [1, 4, 2, 4 * p - 3, 5 * p - 1, p * p - 5 * p, 3 * p * p - 4 * p]


def geometric(c, step):
    """1 / (1 - c x^step), truncated at x^DEGREE."""
    return [c ** (e // step) if e % step == 0 else 0
            for e in range(DEGREE + 1)]


def local_factor(p):
    """The Euler factor at p, coefficients of x^0 .. x^DEGREE."""
    series = numerator(p)
    for c, step in ((1, 1), (1, 1), (p * p, 4), (p ** 3, 6)):
        series = times(series, geometric(c, step))
    return series


def closed_form(r):
    """The coefficient at r, or None when a seventh power divides r."""
    total, p = 1, 2
    while r > 1:
        e = 0
        while r % p == 0:
            r //= p
            e += 1
        if e > DEGREE:
            return None
        total *= local_factor(p)[e]
        p += 1
    return total


CHECKED = [r for r in range(1, LIMIT + 1) if closed_form(r) is not None]


def test_the_local_factor_is_the_quotient_it_names():
    # times the denominator, the series gives the numerator back; 1/(1 -
    # x)^2 has coefficients 1, 2, 3, ...
    assert geometric(1, 1) == [1] * (DEGREE + 1)
    assert times(geometric(1, 1), geometric(1, 1)) == list(range(1, 8))
    for p in (2, 3, 5, 7):
        series = local_factor(p)
        for factor in ([1, -1], [1, -1], [1, 0, 0, 0, -p * p],
                       [1, 0, 0, 0, 0, 0, -p ** 3]):
            series = times(series, factor)
        assert series == numerator(p)
    assert 128 not in CHECKED and len(CHECKED) == LIMIT - 1


def test_full_rank_three_is_the_closed_form():
    assert [count_full_rank(3, r) for r in CHECKED] == [
        closed_form(r) for r in CHECKED]


def test_unital_four_is_the_closed_form():
    assert [count_unital(4, r) for r in range(1, 65)] == [
        closed_form(r) for r in range(1, 65)]


@pytest.mark.parametrize("k, r_max", [(1, 32), (2, 16), (3, 8)])
def test_rank_three_corank_census_is_stirling_times_the_closed_form(k, r_max):
    factor = stirling_ref(k + 4, 4)
    assert [len(_census(3 + k, k, r, jobs=1, budget=None))
            for r in range(1, r_max + 1)] == [
        factor * closed_form(r) for r in range(1, r_max + 1)]
