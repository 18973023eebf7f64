"""Lattice objects, canonical bases, and product closure."""

import copy
import itertools
import pickle
import random
from math import prod

import pytest

from multlat.intlinalg import hermite_normal_form, smith_normal_form
from multlat.lattice import (
    Lattice,
    _square_closed,
    banded_basis,
    has_rigid_columns,
    is_multiplicative,
    lattice_from_rows,
    torsion_size,
)

from refimpl import (
    echelon_samples,
    is_mult_ref,
    ref_full_rank_lattices,
    ref_hnf,
    torsion_ref,
)


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


def test_constructor_rejects_non_integer_entries():
    with pytest.raises(ValueError):
        Lattice(1, ((True,),))
    with pytest.raises(ValueError):
        Lattice(1, ((1.5,),))
    # an entry off the pivot is checked as well
    with pytest.raises(ValueError):
        Lattice(2, ((1, 0.0), (0, 2)))
    # and so is the ambient dimension
    with pytest.raises(ValueError):
        Lattice(True, ((1,),))
    with pytest.raises(ValueError):
        lattice_from_rows(True, [(2,)])


def test_constructor_rejects_bad_ambient():
    with pytest.raises(ValueError):
        Lattice(-1, ())
    with pytest.raises(ValueError):
        Lattice(2, ((1, 0, 0),))


def test_constructor_accepts_exactly_the_reference_hermite_forms():
    # half the matrices get a random staircase of zeros below their leads,
    # so that canonical bases, and bases one check away from canonical
    # (a negative pivot, an unreduced entry, a lead left of the one above),
    # all turn up often
    rng = random.Random(606)
    accepted = rejected = 0
    for trial in range(6000):
        n = rng.randint(1, 5)
        nrows = rng.randint(1, n)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(nrows)]
        if trial % 2:
            leads = sorted(rng.sample(range(n), nrows))
            for row, lead in zip(rows, leads):
                row[:lead] = [0] * lead
        rows = tuple(tuple(row) for row in rows)
        canonical = rows == tuple(r for r in ref_hnf(rows) if any(r))
        try:
            Lattice(n, rows)
        except ValueError:
            assert not canonical, rows
            rejected += 1
        else:
            assert canonical, rows
            accepted += 1
    assert accepted > 500 and rejected > 500


def test_zero_lattice_and_empty_ambient():
    z = Lattice(3, ())
    assert z.rank == 0 and z.corank == 3
    assert not z.is_full_rank
    assert torsion_size(z) == 1
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


def hermite_route(ambient, rows):
    """The lattice as canonicalized by hermite_normal_form, for comparison."""
    return Lattice(ambient, tuple(r for r in hermite_normal_form(rows) if any(r)))


def test_from_rows_keeps_canonical_rows():
    rng = random.Random(917)
    for _ in range(200):
        n = rng.randint(1, 5)
        basis = lattice_from_rows(n, random_rows(rng, rng.randint(1, n), n)).basis
        if not basis:
            continue
        for rows in (basis, [list(r) for r in basis]):
            lat = lattice_from_rows(n, rows)
            assert lat == hermite_route(n, basis)
            assert lat.basis == basis


def test_from_rows_canonicalizes_non_canonical_rows():
    cases = [
        # a zero row, at the bottom and in the middle
        (2, [(1, 1), (0, 0)], ((1, 1),)),
        (3, [(1, 0, 1), (0, 0, 0), (0, 2, 0)], ((1, 0, 1), (0, 2, 0))),
        # an entry above a pivot that is not reduced
        (2, [(1, 3), (0, 2)], ((1, 1), (0, 2))),
        (2, [(1, -1), (0, 2)], ((1, 1), (0, 2))),
        # a negative pivot
        (2, [(-1, 2), (0, 3)], ((1, 1), (0, 3))),
        (1, [(-4,)], ((4,),)),
        # swapped rows
        (2, [(0, 2), (1, 1)], ((1, 1), (0, 2))),
        (3, [(0, 0, 5), (0, 3, 1), (2, 0, 0)], ((2, 0, 0), (0, 3, 1), (0, 0, 5))),
    ]
    for ambient, rows, basis in cases:
        lat = lattice_from_rows(ambient, rows)
        assert lat.basis == basis
        assert lat == hermite_route(ambient, rows)


def test_from_rows_still_rejects_non_integer_entries():
    with pytest.raises(ValueError):
        lattice_from_rows(1, [(True,)])
    with pytest.raises(ValueError):
        lattice_from_rows(2, [(1, 0.5)])


def test_dict_round_trip():
    lat = lattice_from_rows(3, [(1, 0, 2), (0, 3, 3)])
    d = lat.as_dict()
    assert d == {"ambient": 3, "rank": 2, "basis": [[1, 0, 2], [0, 3, 3]]}
    assert lattice_from_rows(d["ambient"], d["basis"]) == lat


@pytest.mark.parametrize("lat", [
    Lattice(0, ()), Lattice(3, ()), Lattice(2, ((1, 1),)),
    Lattice(3, ((2, 0, 1), (0, 1, 1))),
])
def test_lattice_is_an_immutable_value(lat):
    twin = Lattice(lat.ambient_dim, tuple(tuple(row) for row in lat.basis))
    assert twin == lat and hash(twin) == hash(lat)
    assert Lattice(basis=lat.basis, ambient_dim=lat.ambient_dim) == lat
    assert eval(repr(lat)) == lat
    assert pickle.loads(pickle.dumps(lat)) == lat
    assert copy.deepcopy(lat) == lat
    # equality is class-strict: a tuple of the same fields is not equal
    assert lat != (lat.ambient_dim, lat.basis)
    with pytest.raises(AttributeError):
        lat.basis = ()
    with pytest.raises(AttributeError):
        del lat.ambient_dim
    assert twin == lat


def test_lattice_repr():
    assert repr(Lattice(2, ((1, 1),))) == "Lattice(ambient_dim=2, basis=((1, 1),))"


def test_unpickling_validates_the_basis():
    # the pivot 3 is the one K\x03 (a one-byte int) of the payload; as 0 it
    # leaves a row (0, 1) above (0, 2), not a Hermite basis
    payload = pickle.dumps(Lattice(2, ((3, 1), (0, 2))))
    assert payload.count(b"K\x03") == 1
    with pytest.raises(ValueError, match="canonical Hermite form"):
        pickle.loads(payload.replace(b"K\x03", b"K\x00"))


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


def test_closure_and_torsion_match_reference_on_copied_squares():
    # seeded canonical bases in ambients 0-6: copied triangular squares and
    # Hermite forms of random rows, the zero lattice included
    kinds = set()
    for ambient, rows in echelon_samples(random.Random(918), 1500):
        lat = Lattice(ambient, tuple(tuple(r) for r in rows))
        mult = is_mult_ref(rows)
        assert is_multiplicative(lat) == mult, rows
        assert torsion_size(lat) == torsion_ref(rows), rows
        rigid = len({col for col in zip(*rows) if any(col)}) == len(rows)
        kinds.add((rigid, mult))
    # rigid and multiplicative, rigid and not, and not rigid; a lattice that
    # is not rigid is never multiplicative
    assert kinds == {(True, True), (True, False), (False, False)}


def _canonical_squares(size, top):
    """Every canonical upper-triangular square of the given size whose
    diagonal product is at most top: positive diagonal, and each entry above
    a diagonal entry in [0, that entry)."""
    def diagonals(left, top):
        if not left:
            yield ()
            return
        for d in range(1, top + 1):
            for rest in diagonals(left - 1, top // d):
                yield (d, *rest)

    above = [(i, j) for j in range(size) for i in range(j)]
    for diag in diagonals(size, top):
        for values in itertools.product(*(range(diag[j]) for _, j in above)):
            square = [[0] * size for _ in range(size)]
            for i, d in enumerate(diag):
                square[i][i] = d
            for (i, j), x in zip(above, values):
                square[i][j] = x
            yield tuple(map(tuple, square))


def test_square_closed_matches_every_row_product_on_small_squares():
    # every canonical square of size <= 3 and determinant <= 12 against the
    # reference, which solves every row product, single-entry rows included
    verdicts = set()
    single_above_last = 0
    for size in range(4):
        for square in _canonical_squares(size, 12):
            got = _square_closed(square)
            assert got == is_mult_ref([list(row) for row in square]), square
            verdicts.add(got)
            single_above_last += any(not any(row[i + 1:])
                                     for i, row in enumerate(square[:-1]))
    assert verdicts == {True, False}
    assert single_above_last >= 100, single_above_last


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


def test_torsion_size_matches_reference_in_ambients_four_to_six():
    rng = random.Random(4156)
    for ambient in (4, 5, 6):
        for corank in range(4):
            rank = ambient - corank
            done = 0
            while done < 25:
                lat = lattice_from_rows(ambient,
                                        random_rows(rng, rank, ambient, lo=-4, hi=4))
                if lat.rank != rank:
                    continue
                done += 1
                rows = [list(r) for r in lat.basis]
                got = torsion_size(lat)
                assert got == torsion_ref(rows), lat.basis
                assert got == prod(d for d in smith_normal_form(lat.basis) if d)


def test_torsion_size_multiplicative_under_intersection_scaling():
    # scaling every basis row by m multiplies the quotient by m^rank
    lat = lattice_from_rows(2, [(1, 1), (0, 2)])
    scaled = lattice_from_rows(2, [(3, 3), (0, 6)])
    assert torsion_size(scaled) == torsion_size(lat) * 9


# ------------------------------------------------------------ column counts

def test_rigid_columns_on_multiplicative_lattices():
    assert has_rigid_columns(lattice_from_rows(2, [(1, 1), (0, 2)]))
    assert has_rigid_columns(lattice_from_rows(3, [(1, 1, 0), (0, 0, 2)]))
    assert has_rigid_columns(lattice_from_rows(2, [(1, 1)]))
    assert has_rigid_columns(lattice_from_rows(2, [(1, 0), (0, 2)]))
    # the zero lattice, with no columns that count
    assert has_rigid_columns(Lattice(3, ()))
    assert has_rigid_columns(Lattice(0, ()))
    # a zero column does not count
    assert has_rigid_columns(lattice_from_rows(3, [(1, 0, 1)]))
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
