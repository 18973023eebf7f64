"""Facts about full-rank counts that neither engine nor the co-rank theorem
supplies.

An index-p sublattice contains pZ^n, and the codimension-1 subalgebras of
F_p^n are exactly {x_i = x_j} and {x_i = 0}, so every prime index has
C(n+1, 2) full-rank multiplicative sublattices. For coprime a and b,
L -> (L + aZ^n, L + bZ^n) is a bijection from index ab onto pairs of index
a and index b (its inverse is intersection), so the count is multiplicative
in the index. Both are checked on `count_full_rank`, whose every lattice is
re-verified with the lattice-level product and torsion routines.
"""

from math import comb, gcd

import pytest

from multlat.enumeration import count_full_rank

COPRIME_PAIRS = [(a, b) for a in range(2, 49) for b in range(a + 1, 49)
                 if a * b <= 48 and gcd(a, b) == 1]


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_prime_index_count_is_a_binomial(p):
    for n in range(1, 6):
        assert count_full_rank(n, p) == comb(n + 1, 2), (n, p)


@pytest.mark.parametrize("a,b", COPRIME_PAIRS)
def test_count_is_multiplicative_in_coprime_indices(a, b):
    for n in range(1, 5):
        assert (count_full_rank(n, a * b)
                == count_full_rank(n, a) * count_full_rank(n, b)), (n, a, b)
