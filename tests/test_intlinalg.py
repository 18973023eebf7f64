"""Exact integer linear algebra: Hermite form, Smith diagonal, span solving."""

import random
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multlat.intlinalg import (
    _xgcd,
    hermite_normal_form,
    int_matrix,
    smith_normal_form,
    solve_in_row_span,
)

from refimpl import (
    bareiss_det,
    int_membership,
    rational_rank,
    ref_hnf,
    torsion_ref,
)

small_int = st.integers(min_value=-30, max_value=30)


def random_matrix(rng, nrows, ncols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


# ---------------------------------------------------------------- int_matrix

def test_int_matrix_rejects_empty():
    with pytest.raises(ValueError):
        int_matrix([])
    with pytest.raises(ValueError):
        int_matrix([[]])


def test_int_matrix_rejects_ragged():
    with pytest.raises(ValueError):
        int_matrix([[1, 2], [3]])


def test_int_matrix_rejects_non_integers():
    with pytest.raises(ValueError):
        int_matrix([[1, 2.5]])
    # bool is an int subclass but has no business in a basis
    with pytest.raises(ValueError):
        int_matrix([[True, 0]])


# --------------------------------------------------------------------- xgcd

@given(small_int, small_int)
def test_xgcd_bezout(a, b):
    g, x, y = _xgcd(a, b)
    assert g == x * a + y * b
    assert g >= 0
    if a or b:
        assert a % g == 0 and b % g == 0


# ---------------------------------------------------------------------- HNF

def test_hnf_identity_fixed():
    m = ((1, 0), (0, 1))
    assert hermite_normal_form(m) == m


def test_hnf_zero_matrix_unchanged():
    m = ((0, 0, 0), (0, 0, 0))
    assert hermite_normal_form(m) == m


def test_hnf_known_small_case():
    # rows (2,4) and (3,5): span has det 2*5-4*3 = -2, so the canonical
    # form is [[1, x], [0, 2]] with x in [0, 2)
    h = hermite_normal_form([[2, 4], [3, 5]])
    assert h == ((1, 1), (0, 2))


def test_hnf_single_negative_row():
    assert hermite_normal_form([[-3, 6]]) == ((3, -6),)


def test_hnf_collects_zero_rows_at_bottom():
    h = hermite_normal_form([[0, 0], [0, 7]])
    assert h == ((0, 7), (0, 0))


def test_hnf_matches_reference_on_seeded_matrices():
    rng = random.Random(901)
    for _ in range(300):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        m = random_matrix(rng, nrows, ncols)
        assert hermite_normal_form(m) == ref_hnf(m)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(small_int, min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_hnf_idempotent_and_span_preserving(rows):
    h = hermite_normal_form(rows)
    assert hermite_normal_form(h) == h
    # same integer span in both directions; the reference solver wants
    # independent generators, so compare against nonzero reference-form rows
    ref_rows = [list(r) for r in ref_hnf(rows) if any(r)]
    my_rows = [list(r) for r in h if any(r)]
    for r in rows:
        if any(r):
            assert int_membership(my_rows, list(r))
    for r in my_rows:
        assert int_membership(ref_rows, r)


def test_hnf_pivot_shape():
    rng = random.Random(902)
    for _ in range(200):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        h = hermite_normal_form(m)
        pivots = []
        seen_zero = False
        for row in h:
            nz = [j for j, x in enumerate(row) if x]
            if not nz:
                seen_zero = True
                continue
            assert not seen_zero, "zero row above a nonzero row"
            j = nz[0]
            assert row[j] > 0
            pivots.append(j)
        assert pivots == sorted(set(pivots))
        # entries above each pivot are reduced into [0, pivot)
        for i, j in enumerate(p for p in pivots):
            d = h[i][j]
            for t in range(i):
                assert 0 <= h[t][j] < d


# ---------------------------------------------------------------------- SNF

def test_snf_identity():
    assert smith_normal_form([[1, 0], [0, 1]]) == (1, 1)


def test_snf_known_diagonal():
    # classic: diag(2, 6) has invariant factors 2, 6 already
    assert smith_normal_form([[2, 0], [0, 6]]) == (2, 6)
    # but diag(4, 6) does not: gcd 2, lcm 12
    assert smith_normal_form([[4, 0], [0, 6]]) == (2, 12)


def test_snf_zero_matrix():
    assert smith_normal_form([[0, 0], [0, 0]]) == (0, 0)


def determinantal_invariant_factors(m):
    """d_i = D_i / D_(i-1), D_i the gcd of all i x i minors; zeros past the
    rank, where D_i vanishes."""
    nrows, ncols = len(m), len(m[0])
    out = []
    prev = 1
    for size in range(1, min(nrows, ncols) + 1):
        d = 0
        for rows in combinations(range(nrows), size):
            for cols in combinations(range(ncols), size):
                d = gcd(d, bareiss_det([[m[i][j] for j in cols] for i in rows]))
        out.append(d // prev if d else 0)
        prev = d or prev
    return tuple(out)


def test_snf_matches_determinantal_divisors():
    rng = random.Random(907)
    for _ in range(2000):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        if rng.random() < 0.5:
            # sparse matrices reach zero columns, rank drops and equal pivots
            m = [[x if rng.random() < 0.5 else 0 for x in row] for row in m]
        assert smith_normal_form(m) == determinantal_invariant_factors(m), m


def test_snf_divisibility_chain_seeded():
    rng = random.Random(903)
    for _ in range(250):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        d = smith_normal_form(m)
        assert all(x >= 0 for x in d)
        nz = [x for x in d if x]
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        # zeros only past the rank
        if 0 in d:
            assert all(x == 0 for x in d[d.index(0):])
        assert len(nz) == rational_rank(m)


def test_snf_product_is_torsion_size_on_full_rank_rows():
    rng = random.Random(904)
    checked = 0
    while checked < 120:
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n + rng.randint(0, 1))
        if rational_rank(m) < n:
            continue
        d = smith_normal_form(m)
        prod = 1
        for x in d:
            if x:
                prod *= x
        assert prod == torsion_ref(m)
        checked += 1


def test_torsion_order_matches_reference_on_independent_rows():
    # arbitrary independent rows, not only Hermite bases: rows without a
    # pivot square take their torsion from the Smith diagonal
    rng = random.Random(906)
    checked = 0
    while checked < 150:
        ncols = rng.randint(1, 6)
        m = random_matrix(rng, rng.randint(1, ncols), ncols, lo=-6, hi=6)
        if rational_rank(m) < len(m):
            continue
        assert torsion_ref(m) == prod(smith_normal_form(m)), m
        checked += 1


def test_snf_invariant_under_row_and_column_swaps():
    rng = random.Random(905)
    for _ in range(100):
        m = random_matrix(rng, 3, 3)
        perm = list(range(3))
        rng.shuffle(perm)
        swapped = [[m[i][j] for j in perm] for i in perm]
        assert smith_normal_form(m) == smith_normal_form(swapped)


# -------------------------------------------------------------------- solve

def test_solve_recovers_integer_combination():
    rng = random.Random(906)
    for _ in range(250):
        m = random_matrix(rng, rng.randint(1, 3), rng.randint(2, 4))
        h = hermite_normal_form(m)
        coeffs = [rng.randint(-5, 5) for _ in h]
        v = [0] * len(h[0])
        for c, row in zip(coeffs, h):
            for j, x in enumerate(row):
                v[j] += c * x
        got = solve_in_row_span(h, v)
        assert got is not None
        back = [0] * len(h[0])
        for c, row in zip(got, h):
            for j, x in enumerate(row):
                back[j] += c * x
        assert back == v


def test_solve_rejects_outside_span():
    h = hermite_normal_form([[2, 0], [0, 2]])
    assert solve_in_row_span(h, (1, 0)) is None
    assert solve_in_row_span(h, (2, 1)) is None
    assert solve_in_row_span(h, (4, -2)) == (2, -1)


def test_solve_agrees_with_reference_membership():
    rng = random.Random(907)
    for _ in range(300):
        m = random_matrix(rng, rng.randint(1, 3), 3, lo=-4, hi=4)
        h = hermite_normal_form(m)
        gens = [list(r) for r in h if any(r)]
        if not gens:
            continue
        v = [rng.randint(-8, 8) for _ in range(3)]
        got = solve_in_row_span(h, v)
        assert (got is not None) == int_membership(gens, v)
        # the coefficients found rebuild v, one per row of h
        if got is not None:
            assert len(got) == len(h)
            assert [sum(c * row[j] for c, row in zip(got, h))
                    for j in range(3)] == v


def test_solve_zero_rows_get_zero_coefficients():
    h = hermite_normal_form([[1, 2], [2, 4]])
    assert h[1] == (0, 0)
    assert solve_in_row_span(h, (3, 6)) == (3, 0)


def test_solve_length_mismatch():
    with pytest.raises(ValueError):
        solve_in_row_span([[1, 0]], (1, 0, 0))


def test_solve_rejects_a_non_int_vector_entry():
    # the vector's entries are checked as the matrix's are, bool excluded
    with pytest.raises(ValueError, match="^non-integer entry 2.0$"):
        solve_in_row_span([[2]], [2.0])
    with pytest.raises(ValueError, match="^non-integer entry True$"):
        solve_in_row_span([[1, 0], [0, 1]], [True, 3])


def test_solve_rejects_non_hermite_input():
    # pivots out of order, a negative pivot, a zero row above a nonzero one
    for h in ([[0, 1], [1, 0]], [[-1, 0], [0, 1]], [[0, 0], [0, 1]]):
        with pytest.raises(ValueError):
            solve_in_row_span(h, (1, 1))
