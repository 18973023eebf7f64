"""Lattice objects, canonical bases, and product closure."""

import random

import pytest

from multlat.lattice import (
    Lattice,
    banded_basis,
    contains_vector,
    distinct_nonzero_columns,
    has_rigid_columns,
    is_multiplicative,
    lattice_from_rows,
    pointwise_product,
    torsion_size,
)

from refimpl import int_membership, is_mult_ref, ref_full_rank_lattices, torsion_ref


def random_rows(rng, nrows, ncols, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


# ------------------------------------------------------------- construction

def test_constructor_accepts_canonical_basis():
    lat = Lattice(2, ((1, 0), (0, 2)))
    assert lat.rank == 2
    assert lat.corank == 0
    assert lat.is_full_rank


def test_constructor_rejects_zero_rows():
    with pytest.raises(ValueError):
        Lattice(2, ((1, 0), (0, 0)))


def test_constructor_rejects_unsorted_pivots():
    with pytest.raises(ValueError):
        Lattice(2, ((0, 1), (1, 0)))


def test_constructor_rejects_negative_pivot():
    with pytest.raises(ValueError):
        Lattice(1, ((-1,),))


def test_constructor_rejects_unreduced_entries():
    # entry above the second pivot must sit in [0, 2)
    with pytest.raises(ValueError):
        Lattice(2, ((1, 3), (0, 2)))
    Lattice(2, ((1, 1), (0, 2)))


def test_constructor_rejects_bad_ambient():
    with pytest.raises(ValueError):
        Lattice(-1, ())
    with pytest.raises(ValueError):
        Lattice(2, ((1, 0, 0),))


def test_zero_lattice_and_empty_ambient():
    z = Lattice(3, ())
    assert z.rank == 0 and z.corank == 3
    assert not z.is_full_rank
    assert torsion_size(z) == 1
    assert contains_vector(z, (0, 0, 0))
    assert not contains_vector(z, (1, 0, 0))
    degenerate = Lattice(0, ())
    assert degenerate.is_full_rank


def test_from_rows_canonicalizes():
    lat = lattice_from_rows(2, [(2, 4), (3, 5)])
    assert lat.basis == ((1, 1), (0, 2))
    assert lattice_from_rows(2, [(0, 0)]).basis == ()


def test_from_rows_row_order_invariance():
    rng = random.Random(911)
    for _ in range(200):
        rows = random_rows(rng, rng.randint(1, 4), 3)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert lattice_from_rows(3, rows) == lattice_from_rows(3, shuffled)


def test_from_rows_unimodular_invariance():
    # adding an integer multiple of one row to another never changes the span
    rng = random.Random(912)
    for _ in range(200):
        rows = random_rows(rng, 3, 4)
        lat = lattice_from_rows(4, rows)
        for _ in range(12):
            i, j = rng.sample(range(3), 2)
            c = rng.randint(-3, 3)
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        assert lattice_from_rows(4, rows) == lat


def test_dict_round_trip():
    lat = lattice_from_rows(3, [(1, 0, 2), (0, 3, 3)])
    d = lat.as_dict()
    assert d == {"ambient": 3, "rank": 2, "basis": [[1, 0, 2], [0, 3, 3]]}
    assert Lattice.from_dict(d) == lat
    with pytest.raises(ValueError):
        Lattice.from_dict({"ambient": 3, "rank": 1, "basis": [[1, 0, 2], [0, 3, 3]]})


# --------------------------------------------------------------- membership

def test_contains_vector_matches_reference():
    rng = random.Random(913)
    for _ in range(250):
        lat = lattice_from_rows(3, random_rows(rng, rng.randint(1, 3), 3))
        v = [rng.randint(-9, 9) for _ in range(3)]
        if lat.basis:
            expect = int_membership([list(r) for r in lat.basis], v)
        else:
            expect = not any(v)
        assert contains_vector(lat, v) == expect


def test_pointwise_product():
    assert pointwise_product((1, -2, 3), (4, 5, 0)) == (4, -10, 0)
    with pytest.raises(ValueError):
        pointwise_product((1,), (1, 2))


# ----------------------------------------------------------- multiplicative

def test_is_multiplicative_known_cases():
    # any diagonal full-rank lattice is closed under coordinatewise products
    assert is_multiplicative(lattice_from_rows(2, [(2, 0), (0, 3)]))
    # the line through (1, 2) is not: its square (1, 4) falls outside
    assert not is_multiplicative(lattice_from_rows(2, [(1, 2)]))
    # the line through (1, 1) is
    assert is_multiplicative(lattice_from_rows(2, [(1, 1)]))
    # index-2 sublattice generated by (1,1),(0,2): squares land back inside
    assert is_multiplicative(lattice_from_rows(2, [(1, 1), (0, 2)]))
    assert is_multiplicative(Lattice(2, ()))


def test_is_multiplicative_matches_reference():
    rng = random.Random(914)
    agree_pos = 0
    for _ in range(400):
        lat = lattice_from_rows(3, random_rows(rng, rng.randint(1, 3), 3, lo=-3, hi=3))
        got = is_multiplicative(lat)
        assert got == is_mult_ref([list(r) for r in lat.basis])
        agree_pos += got
    assert agree_pos > 0, "sample never hit a multiplicative lattice"


def test_is_multiplicative_matches_reference_in_ambients_four_and_five():
    # full-rank lattices drawn from the reference's complete list, and
    # lower-rank spans of small nonnegative rows: both kinds hold
    # multiplicative and non-multiplicative lattices
    rng = random.Random(4145)
    seen = set()
    for ambient in (4, 5):
        pool = [m for r in (2, 3, 4) for m in ref_full_rank_lattices(ambient, r)]
        samples = rng.sample(pool, 80)
        samples += [random_rows(rng, rng.randint(1, ambient - 1), ambient,
                                lo=0, hi=rng.randint(1, 2))
                    for _ in range(150)]
        for rows in samples:
            lat = lattice_from_rows(ambient, rows)
            got = is_multiplicative(lat)
            assert got == is_mult_ref([list(r) for r in lat.basis]), lat.basis
            seen.add((ambient, lat.is_full_rank, got))
    assert seen == {(a, full, mult) for a in (4, 5) for full in (True, False)
                    for mult in (True, False)}


# ------------------------------------------------------------------ torsion

def test_torsion_size_full_rank():
    assert torsion_size(lattice_from_rows(2, [(2, 0), (0, 3)])) == 6
    assert torsion_size(lattice_from_rows(1, [(7,)])) == 7


def test_torsion_size_not_the_pivot_product():
    # span of (2, 3) is primitive: torsion 1 even though the pivot is 2
    lat = lattice_from_rows(2, [(2, 3)])
    assert lat.basis == ((2, 3),)
    assert torsion_size(lat) == 1


def test_torsion_size_matches_reference():
    rng = random.Random(915)
    for _ in range(200):
        lat = lattice_from_rows(3, random_rows(rng, rng.randint(1, 3), 3))
        if not lat.basis:
            continue
        assert torsion_size(lat) == torsion_ref([list(r) for r in lat.basis])


def test_torsion_size_multiplicative_under_intersection_scaling():
    # scaling every basis row by m multiplies the quotient by m^rank
    lat = lattice_from_rows(2, [(1, 1), (0, 2)])
    scaled = lattice_from_rows(2, [(3, 3), (0, 6)])
    assert torsion_size(scaled) == torsion_size(lat) * 9


# ------------------------------------------------------------ column counts

def test_distinct_nonzero_columns():
    assert distinct_nonzero_columns(lattice_from_rows(2, [(1, 1)])) == 1
    assert distinct_nonzero_columns(lattice_from_rows(2, [(1, 0), (0, 2)])) == 2
    assert distinct_nonzero_columns(lattice_from_rows(3, [(1, 1, 0), (0, 0, 2)])) == 2
    assert distinct_nonzero_columns(Lattice(3, ())) == 0
    # a zero column does not count
    assert distinct_nonzero_columns(lattice_from_rows(3, [(1, 0, 1)])) == 1


def test_rigid_columns_on_multiplicative_lattices():
    assert has_rigid_columns(lattice_from_rows(2, [(1, 1), (0, 2)]))
    assert has_rigid_columns(lattice_from_rows(3, [(1, 1, 0), (0, 0, 2)]))
    with pytest.raises(ValueError):
        has_rigid_columns(lattice_from_rows(2, [(1, 2)]))


# ------------------------------------------------------------- banded basis

def test_banded_basis_shape_and_span():
    rng = random.Random(916)
    for _ in range(200):
        n = rng.randint(1, 4)
        lat = lattice_from_rows(n, random_rows(rng, rng.randint(1, n), n))
        rows = banded_basis(lat)
        assert len(rows) == lat.rank
        k = lat.corank
        for i, row in enumerate(rows):
            for j in range(n):
                if j - i > k:
                    assert row[j] == 0
        assert lattice_from_rows(n, rows) == lat


def test_banded_basis_zero_lattice():
    assert banded_basis(Lattice(2, ())) == ()
