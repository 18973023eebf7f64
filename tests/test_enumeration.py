"""Counting engines: full-rank enumeration, staircase census, factorization.

The heavier cross-checks pit the pruned engine against the unpruned reference
scan in refimpl; the frozen count tables below were produced by that reference
implementation before the engine existed and must never be edited to make a
test pass.
"""

import ast
import inspect
import itertools
import math
import random
import textwrap

import pytest

from multlat.cache import CountRecord
from multlat.enumeration import (
    SearchBudgetExceeded,
    VerificationReport,
    count_corank_formula,
    count_full_rank,
    count_unital,
    decompose,
    enumerate_corank_oracle,
    enumerate_full_rank_multiplicative,
    find_counterexample,
    reconstruct_from_factorization,
    verify_corank_factorization,
)
import multlat.enumeration as enumeration
import multlat.intlinalg as intlinalg
import multlat.lattice as lattice
from multlat.enumeration import (
    _closed_extensions,
    _corank_worker,
    _full_rank_worker,
    _in_span,
    _Steps,
    _census,
    _check_witness,
)
from multlat.lattice import (
    Lattice,
    banded_basis,
    distinct_nonzero_columns,
    is_multiplicative,
    lattice_from_rows,
    torsion_size,
)
from multlat.partitions import (
    apply_map,
    enumerate_ordered_maps,
    is_ordered,
    stirling2,
)

from refimpl import (
    is_mult_ref,
    ref_canonical_key,
    ref_corank_scan,
    ref_count_full_rank_mult,
    ref_count_unital,
    ref_full_rank_lattices,
)
from test_acceptance import CAMPAIGN_CELLS

# computed with the reference scan before the engine was written
FULL_RANK_2 = [1, 3, 3, 4, 3, 9, 3, 6, 4, 9, 3, 12, 3, 9, 9, 10]
FULL_RANK_3 = [1, 6, 6, 13, 6, 36, 6, 25]


# ----------------------------------------------------------- frozen tables

def test_full_rank_counts_dimension_one():
    # Z^1 has exactly one sublattice per index and it is multiplicative
    for r in range(1, 21):
        assert count_full_rank(1, r) == 1


def test_full_rank_counts_dimension_two_frozen():
    got = [count_full_rank(2, r) for r in range(1, 17)]
    assert got == FULL_RANK_2


def test_full_rank_counts_dimension_three_frozen():
    got = [count_full_rank(3, r) for r in range(1, 9)]
    assert got == FULL_RANK_3


def test_full_rank_counts_match_reference_live():
    for n in (1, 2, 3):
        for r in range(1, 7):
            assert count_full_rank(n, r) == ref_count_full_rank_mult(n, r), (n, r)


def test_full_rank_engine_matches_unpruned_reference():
    # the engine drops a basis at its first closure failure; the reference
    # lists every full-rank lattice and filters afterwards. (3, 18) is the
    # first cell where a partial row carries a non-zero multiple of a lower
    # row forward to a later column
    cells = ([(n, r) for n in (1, 2, 3, 4) for r in range(1, 9)]
             + [(n, r) for n in (5, 6) for r in (1, 2, 3)] + [(3, 18)])
    for n, r in cells:
        ref = {ref_canonical_key(m, n) for m in ref_full_rank_lattices(n, r)
               if is_mult_ref(m)}
        mine = {lat.basis for lat in enumerate_full_rank_multiplicative(n, r)}
        assert mine == ref, (n, r)
        if n == 6 and r > 1:
            assert len(mine) == 21


def test_full_rank_multiplicativity_is_a_real_constraint():
    # there are 7 full-rank index-4 sublattices of Z^2 but only 4 multiplicative
    assert count_full_rank(2, 4) == 4


# ------------------------------------------------------ full-rank censuses

def test_enumerate_full_rank_properties():
    for n, r in ((2, 6), (3, 4)):
        lats = enumerate_full_rank_multiplicative(n, r)
        assert len(set(lats)) == len(lats)
        assert lats == sorted(lats, key=lambda l: l.basis)
        for lat in lats:
            assert lat.ambient_dim == n and lat.is_full_rank
            assert is_multiplicative(lat)
            assert torsion_size(lat) == r


def test_enumerate_full_rank_jobs_split_agrees():
    for n, r in ((2, 12), (3, 6)):
        assert enumerate_full_rank_multiplicative(n, r) == \
            enumerate_full_rank_multiplicative(n, r, jobs=3)


def test_enumerate_full_rank_arg_validation():
    with pytest.raises(ValueError):
        enumerate_full_rank_multiplicative(0, 1)
    with pytest.raises(ValueError):
        enumerate_full_rank_multiplicative(2, 0)
    with pytest.raises(ValueError):
        enumerate_full_rank_multiplicative(2, 2, jobs=0)
    with pytest.raises(ValueError):
        enumerate_full_rank_multiplicative(2, 2, budget=0)


def test_count_full_rank_dimension_zero_convention():
    assert count_full_rank(0, 1) == 1
    assert count_full_rank(0, 5) == 0
    with pytest.raises(ValueError):
        count_full_rank(0, 0)


# ------------------------------------------------------------------ unital

def test_count_unital_matches_reference():
    for n in (1, 2, 3):
        for r in range(1, 7):
            assert count_unital(n, r) == ref_count_unital(n, r), (n, r)


def test_count_unital_shifts_dimension():
    # the unital count in dimension n equals the plain count in dimension n-1
    for r in range(1, 9):
        assert count_unital(2, r) == count_full_rank(1, r)
        assert count_unital(3, r) == count_full_rank(2, r)


def test_count_unital_dimension_one_edge():
    # Z^1 has one subring per index but only index 1 contains the unit
    assert count_unital(1, 1) == 1
    for r in range(2, 9):
        assert count_unital(1, r) == 0


def test_count_unital_dimension_zero_convention():
    assert count_unital(0, 1) == 1
    assert count_unital(0, 3) == 0


# ----------------------------------------------------------- corank census

def test_corank_scan_matches_unpruned_reference():
    # the engine prunes hard; the reference scan does not prune at all
    cells = [
        (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4),
        (3, 1, 2), (3, 1, 3),
        (3, 2, 1), (3, 2, 2), (3, 2, 3), (3, 2, 4),
        (4, 2, 2), (4, 2, 3),
        (4, 3, 2), (4, 3, 4),
        (4, 1, 2),
    ]
    for ambient, corank, torsion in cells:
        lats = enumerate_corank_oracle(ambient, corank, torsion)
        mine = {lat.basis for lat in lats}
        ref = ref_corank_scan(ambient, corank, torsion, torsion)
        assert mine == ref, (ambient, corank, torsion)


def test_corank_scan_matches_unpruned_reference_at_wider_bound():
    for ambient, corank, torsion in ((2, 1, 3), (3, 2, 2), (3, 1, 2)):
        lats = enumerate_corank_oracle(ambient, corank, torsion, 2)
        mine = {lat.basis for lat in lats}
        ref = ref_corank_scan(ambient, corank, torsion, 2 * torsion)
        assert mine == ref, (ambient, corank, torsion)


def test_corank_census_banded_entries_fit_the_base_bound():
    # the scan solves for its off-pivot entries over all the integers and
    # bounds only the pivots after row 0, yet every lattice it finds, under
    # the wider bound too, has every banded entry in [0, torsion]: its
    # pivots never need more than multiplier 1, and no entry is negative
    cells = [(3, 1, 4), (4, 2, 3), (4, 1, 2), (4, 3, 4)]
    for ambient, corank, torsion in cells:
        for lat in enumerate_corank_oracle(ambient, corank, torsion, 2):
            for row in banded_basis(lat):
                assert all(0 <= x <= torsion for x in row), lat.basis


def test_corank_scan_stable_under_wider_bound():
    cells = [(2, 1, 4), (3, 1, 3), (3, 2, 4), (4, 2, 2)]
    for ambient, corank, torsion in cells:
        narrow = enumerate_corank_oracle(ambient, corank, torsion, 1)
        wide = enumerate_corank_oracle(ambient, corank, torsion, 2)
        assert narrow == wide, (ambient, corank, torsion)


def _scan_by_smith_torsion(ambient, corank, torsion, bound):
    """The census's bases from every lead in [1, bound] at every level.

    The scan's own step and lead columns, but none of its premises: no
    lead is pruned by the torsion left over, the last level is not given
    the quotient, and a complete basis is kept when the product of its
    nonzero Smith invariants, not of its leads, is the torsion.
    """
    n = ambient - corank
    found = []
    steps = _Steps(10 ** 9)

    def extend(hnf, pivots):
        if len(hnf) == n:
            if math.prod(d for d in intlinalg.smith_normal_form(hnf)
                         if d) == torsion:
                found.append(tuple(tuple(row) for row in hnf))
            return
        for q in range(n - 1 - len(hnf), pivots[0] if hnf else ambient):
            for h2 in _closed_extensions(hnf, pivots, q, range(1, bound + 1),
                                         ambient, steps):
                extend(h2, [q] + pivots)

    extend([], [])
    return sorted(found)


def test_corank_scan_needs_no_pivot_square_premise():
    # the scan tries only divisors of the torsion left over because a
    # closed prefix has a pivot square, the premise the formula rests on
    # too; a scan without it, with every pivot up to r and up to 2r, finds
    # the same bases on every campaign cell, so no pivot above r is missed
    for n, k, r in CAMPAIGN_CELLS:
        census = [lat.basis
                  for lat in _census(n + k, k, r, 1, jobs=1, budget=None)]
        for bound in (r, 2 * r):
            assert _scan_by_smith_torsion(n + k, k, r, bound) == census, \
                (n, k, r, bound)


def test_corank_scan_jobs_split_agrees():
    for cell in ((3, 1, 3), (4, 2, 2)):
        ambient, corank, torsion = cell
        assert enumerate_corank_oracle(ambient, corank, torsion) == \
            enumerate_corank_oracle(ambient, corank, torsion, jobs=3)


def test_corank_zero_equals_full_rank_census():
    for n, r in ((2, 4), (3, 3)):
        assert enumerate_corank_oracle(n, 0, r) == \
            enumerate_full_rank_multiplicative(n, r)


def test_corank_census_properties():
    lats = enumerate_corank_oracle(4, 2, 2)
    assert len(lats) == 75
    for lat in lats:
        assert lat.ambient_dim == 4 and lat.rank == 2
        assert is_multiplicative(lat)
        assert torsion_size(lat) == 2
        # rigidity: exactly rank-many distinct nonzero columns
        assert distinct_nonzero_columns(lat) == lat.rank


def test_corank_full_ambient_edge():
    # rank zero: only the zero lattice, and only with trivial torsion
    assert enumerate_corank_oracle(2, 2, 1) == [Lattice(2, ())]
    assert enumerate_corank_oracle(2, 2, 2) == []
    assert enumerate_corank_oracle(0, 0, 1) == [Lattice(0, ())]
    assert enumerate_corank_oracle(2, 2, 1, jobs=3) == [Lattice(2, ())]


def test_corank_one_column_structure():
    # co-rank 1 witnesses drop exactly one column: it is either zero or a
    # duplicate of another column
    for r in (1, 2, 3):
        for lat in enumerate_corank_oracle(3, 1, r):
            cols = [tuple(row[j] for row in lat.basis) for j in range(3)]
            zero = (0,) * lat.rank
            assert any(c == zero for c in cols) or len(set(cols)) < 3


def test_corank_arg_validation():
    with pytest.raises(ValueError):
        enumerate_corank_oracle(2, 3, 1)
    with pytest.raises(ValueError):
        enumerate_corank_oracle(2, -1, 1)
    with pytest.raises(ValueError):
        enumerate_corank_oracle(2, 1, 0)
    with pytest.raises(ValueError):
        enumerate_corank_oracle(2, 1, 2, 0)
    # jobs and budget are checked at every rank, rank 0 included
    for ambient in (2, 1):
        with pytest.raises(ValueError):
            enumerate_corank_oracle(ambient, 1, 1, jobs=0)
        with pytest.raises(ValueError):
            enumerate_corank_oracle(ambient, 1, 1, budget=0)


# ------------------------------------------------------------------ budget

def test_budget_exhaustion_raises():
    with pytest.raises(SearchBudgetExceeded) as exc:
        enumerate_corank_oracle(3, 0, 8, budget=50)
    assert "budget" in str(exc.value)
    with pytest.raises(SearchBudgetExceeded):
        count_full_rank(3, 8, budget=50)


def test_budget_counts_entries_tried():
    # (3, 1, 1) in the reversed frame, one step per lead, per entry tried in
    # a pivot column and per off-pivot column (its roots are solved for).
    # r = 1 leaves every level the single lead 1. Level 0: 0,1,x costs 1 at
    # column 1 and 1 at column 2, 0,0,1 costs 1 at column 2: 3 steps.
    # Level 1: 1,0,x under 0,1,0 and under 0,1,1 cost 1 at column 0, 1 at
    # column 1 and 1 at column 2 each (6); 1,x,y under 0,0,1 costs 1 at
    # column 0, 1 at column 1 and 1 at column 2 for each root x in {0, 1}
    # (4); 0,1,0 under 0,0,1 costs 1 at column 1 and 1 at column 2 (2): 12
    # steps. 15 in all
    assert len(enumerate_corank_oracle(3, 1, 1, budget=15)) == 6
    with pytest.raises(SearchBudgetExceeded, match="after 15 entries"):
        enumerate_corank_oracle(3, 1, 1, budget=14)


def test_budget_counts_divisor_leads():
    # (2, 1, 4): level 0 is the last level, so its only lead is the torsion
    # left over, 4. The lead at column 0 costs 1 at column 0 and 1 at column
    # 1, which is off-pivot with the roots 0 and 4 (2); the lead at column
    # 1 costs 1 at column 1 (1): 3 steps for the 3 lattices
    assert len(enumerate_corank_oracle(2, 1, 4, budget=3)) == 3
    with pytest.raises(SearchBudgetExceeded, match="after 3 entries"):
        enumerate_corank_oracle(2, 1, 4, budget=2)
    # (2, 0, 4): level 0 leads at column 1 with the divisors 1, 2, 4 of the
    # torsion (3 steps). Level 1, the last, leads at column 0 with the
    # torsion left over, 4, 2 and 1 (1 step each, 3), and tries its entry
    # at column 1, a pivot column, in [0, 1), [0, 2) and [0, 4) (1 + 2 + 4
    # steps, 7): 13 steps for the 4 lattices, as the full-rank engine takes
    assert len(enumerate_corank_oracle(2, 0, 4, budget=13)) == 4
    with pytest.raises(SearchBudgetExceeded, match="after 13 entries"):
        enumerate_corank_oracle(2, 0, 4, budget=12)


def test_full_rank_budget_counts_entries_tried():
    # (2, 4): last-row pivots 1, 2, 4 (3 steps); above each, the forced
    # first pivot 4, 2, 1 (1 step each) and its entry in [0, 1), [0, 2)
    # and [0, 4) (1 + 2 + 4 steps): 13 steps for 4 lattices
    assert len(enumerate_full_rank_multiplicative(2, 4, budget=13)) == 4
    with pytest.raises(SearchBudgetExceeded, match="after 13 entries"):
        enumerate_full_rank_multiplicative(2, 4, budget=12)


@pytest.fixture
def step_totals(monkeypatch):
    """Each `_Steps` the engines make from now on, for reading `used`."""
    made = []

    class Recorded(_Steps):
        def __init__(self, budget):
            super().__init__(budget)
            made.append(self)

    monkeypatch.setattr(enumeration, "_Steps", Recorded)
    return made


def test_corank_zero_scan_costs_what_the_full_rank_engine_costs(step_totals):
    # at co-rank 0 the scan takes the full-rank engine's leads, the
    # divisors of the index left over and the quotient itself last, and
    # the same entries, so each charges the same steps
    for n in range(1, 5):
        for r in range(1, 13):
            _corank_worker((n, 0, r, 0, 1, 10 ** 9))
            _full_rank_worker((n, r, 0, 1, 10 ** 9))
            scan, full = step_totals[-2:]
            assert scan.used == full.used, (n, r)


def test_bound_multiplier_changes_no_step(step_totals):
    # every lead divides the torsion, so the multiplier reaches no step
    for n, k, r in CAMPAIGN_CELLS:
        totals = []
        for bound in (1, 2):
            step_totals.clear()
            enumerate_corank_oracle(n + k, k, r, bound)
            totals.append(sum(s.used for s in step_totals))
        assert totals[0] == totals[1] > 0, (n, k, r)


def test_budget_large_enough_changes_nothing():
    small = enumerate_corank_oracle(2, 1, 3, budget=10_000)
    assert small == enumerate_corank_oracle(2, 1, 3)


# ----------------------------------------------------- formula and records

def test_count_corank_formula_values():
    assert count_corank_formula(2, 2, 2) == 75
    assert count_corank_formula(3, 1, 2) == stirling2(5, 4) * 6
    assert count_corank_formula(1, 1, 5) == stirling2(3, 2) * 1
    # k = 0 degenerates to the plain full-rank count
    assert count_corank_formula(2, 0, 4) == 4
    with pytest.raises(ValueError):
        count_corank_formula(-1, 1, 2)


def test_count_corank_formula_honours_jobs_and_budget():
    assert count_corank_formula(3, 1, 8, jobs=2) == \
        count_corank_formula(3, 1, 8)
    with pytest.raises(SearchBudgetExceeded):
        count_corank_formula(3, 1, 8, budget=5)


def test_count_record_validation():
    record = CountRecord(2, 1, 3, 18, "oracle", "0.1.0")
    assert record == CountRecord(n=2, k=1, r=3, count=18, method="oracle",
                                 engine_version="0.1.0")
    with pytest.raises(AttributeError):
        record.count = 19
    with pytest.raises(ValueError):
        CountRecord(2, 1, 3, 18, "guess", "0.1.0")
    with pytest.raises(ValueError):
        CountRecord(2, 1, 0, 18, "oracle", "0.1.0")
    with pytest.raises(ValueError):
        CountRecord(2, 1, 3, -1, "oracle", "0.1.0")
    with pytest.raises(ValueError):
        CountRecord(2, 0, 3, 3, "formula", "0.1.0")


def test_verification_report_dict():
    rep = VerificationReport(2, 1, 2, 18, 18, 6, 3, 18, "pass")
    d = rep.as_dict()
    assert d["oracle_count"] == 18 and d["status"] == "pass"
    assert list(d) == ["n", "k", "r", "oracle_count", "formula_count",
                      "stirling_factor", "full_rank_count",
                      "witnesses_checked", "status"]


# ----------------------------------------------------------- factorization

def test_decompose_round_trip_small():
    for n in (1, 2):
        for k in (0, 1, 2):
            for r in (1, 2, 3, 4):
                cores = enumerate_full_rank_multiplicative(n, r)
                for g in enumerate_ordered_maps(n, n + k):
                    for core in cores:
                        lat = apply_map(g, core)
                        assert decompose(lat) == (g, core)


def test_decompose_round_trip_three_and_four_dimensional_cores():
    cells = [(3, k) for k in (0, 1, 2)] + [(4, 1)]
    for n, k in cells:
        maps = list(enumerate_ordered_maps(n, n + k))
        for r in (1, 2, 3, 4):
            for core in enumerate_full_rank_multiplicative(n, r):
                for g in maps:
                    lat = apply_map(g, core)
                    got_g, got_core = decompose(lat)
                    assert (got_g, got_core) == (g, core), (n, k, g, core)
                    assert is_ordered(got_g)
                    assert torsion_size(got_core) == torsion_size(lat) == r


def test_decompose_full_rank_is_identity_map():
    lat = lattice_from_rows(2, [(1, 1), (0, 2)])
    g, core = decompose(lat)
    assert g.assignment == (1, 2)
    assert core == lat


def test_decompose_zero_lattice():
    g, core = decompose(Lattice(3, ()))
    assert g.assignment == (0, 0, 0)
    assert core == Lattice(0, ())


def test_decompose_rejects_non_multiplicative():
    with pytest.raises(ValueError):
        decompose(lattice_from_rows(2, [(1, 2)]))


def test_decompose_rejects_non_multiplicative_with_rigid_columns():
    # columns (1,0), (2,3), (2,3): rank-many distinct nonzero columns, yet
    # (1,2,2)^2 - (1,2,2) = (0,2,2) is not a multiple of (0,3,3)
    lat = lattice_from_rows(3, [(1, 2, 2), (0, 3, 3)])
    assert distinct_nonzero_columns(lat) == lat.rank
    with pytest.raises(ValueError):
        decompose(lat)


def test_reconstruction_matches_census():
    for n, k, r in ((1, 1, 4), (1, 2, 3), (2, 1, 2), (2, 2, 2)):
        rebuilt = reconstruct_from_factorization(n, k, r)
        census = enumerate_corank_oracle(n + k, k, r)
        assert len(rebuilt) == len(set(rebuilt)), "duplicate image"
        assert set(rebuilt) == set(census), (n, k, r)


def test_verify_passes_on_small_cells():
    for n, k, r in ((1, 1, 5), (1, 2, 2), (2, 1, 3), (2, 2, 2)):
        rep = verify_corank_factorization(n, k, r)
        assert rep.status == "pass", (n, k, r)
        assert rep.oracle_count == rep.formula_count
        assert rep.formula_count == rep.stirling_factor * rep.full_rank_count
        assert rep.witnesses_checked == rep.oracle_count


def test_verify_with_wider_bound():
    rep = verify_corank_factorization(2, 1, 2, bound_multiplier=2)
    assert rep.status == "pass"
    assert rep.oracle_count == 18


def test_find_counterexample_clean_cells():
    assert find_counterexample(1, 1, 3) is None
    assert find_counterexample(2, 1, 2) is None


def test_check_witness_from_one_square(monkeypatch):
    # rigid and multiplicative, with a core of index 2
    rigid = lattice_from_rows(3, [(1, 1, 0), (0, 0, 2)])
    # a pivot square that is not closed: (1, 2)^2 = (1, 4) is not in it
    open_square = lattice_from_rows(3, [(1, 2, 2), (0, 3, 3)])
    assert intlinalg._pivot_square(open_square.basis) is not None
    # columns (1,0), (2,0), (3,2): three distinct nonzero columns at rank 2
    non_rigid = lattice_from_rows(3, [(1, 2, 3), (0, 0, 2)])
    assert intlinalg._pivot_square(non_rigid.basis) is None
    # each re-verification error, with the square and on the general route
    with pytest.raises(RuntimeError, match="engine produced a bad lattice"):
        _check_witness(rigid, 1, 2)
    with pytest.raises(RuntimeError, match="engine produced a bad lattice"):
        _check_witness(open_square, 2, 3)
    with pytest.raises(RuntimeError, match="engine produced a wrong torsion"):
        _check_witness(rigid, 2, 3)
    with pytest.raises(RuntimeError, match="engine produced a bad lattice"):
        _check_witness(non_rigid, 2, 2)
    census = enumerate_corank_oracle(3, 1, 2)
    assert rigid in census
    for lat in census:
        assert _check_witness(lat, 2, 2) is None
    # the fault: no multiplicative lattice lacks a square, so one is
    # accepted by hand
    accept = enumeration.is_multiplicative
    monkeypatch.setattr(enumeration, "is_multiplicative",
                        lambda lat: lat == non_rigid or accept(lat))
    assert _check_witness(non_rigid, 2, 2) == "column count differs from rank"
    with pytest.raises(RuntimeError, match="engine produced a wrong torsion"):
        _check_witness(non_rigid, 2, 4)


def test_census_is_closed_under_reversing_coordinates():
    # the scan lists each lattice L as rev(L), L with its coordinates
    # reversed, by the canonical basis its reversed frame builds; read
    # backwards, rows and columns, that basis is L's banded basis, and the
    # lattices those bases span are the census again
    for n, k, r in [*CAMPAIGN_CELLS, (3, 2, 8), (5, 1, 4)]:
        census = enumerate_corank_oracle(n + k, k, r)
        back = []
        for lat in census:
            rows = tuple(row[::-1] for row in lat.basis[::-1])
            back.append(lattice_from_rows(n + k, rows))
            if n + k <= 4:
                assert banded_basis(back[-1]) == rows, lat.basis
        assert sorted(back, key=lambda lat: lat.basis) == census, (n, k, r)


def test_measured_paths_never_reach_the_general_routines(monkeypatch):
    # every basis the campaign and the round trip meet has a pivot square,
    # so the Smith diagonal and the span solver are never needed there
    def refuse(*args, **kwargs):
        raise AssertionError("general routine reached")

    monkeypatch.setattr(intlinalg, "smith_normal_form", refuse)
    monkeypatch.setattr(lattice, "solve_in_row_span", refuse)
    # nor does verify put any witness into Hermite form
    with monkeypatch.context() as verify_only:
        verify_only.setattr(lattice, "hermite_normal_form", refuse)
        for n, k, r in ((1, 3, 10), (2, 1, 6), (2, 2, 8), (3, 1, 4)):
            for bound in (1, 2):
                rep = verify_corank_factorization(n, k, r, bound)
                assert rep.status == "pass", (n, k, r, bound)
    for n in range(5):
        cores = [(1, Lattice(0, ()))] if n == 0 else [
            (r, core) for r in range(1, 9)
            for core in enumerate_full_rank_multiplicative(n, r)]
        for k in range(5 - n):
            for g in enumerate_ordered_maps(n, n + k):
                for r, core in cores:
                    lat = apply_map(g, core)
                    assert decompose(lat) == (g, core)
                    assert torsion_size(lat) == r


# ----------------------------------------------------- low-level internals

def test_canonical_key_matches_package_basis():
    rng = random.Random(933)
    for _ in range(150):
        rows = [[rng.randint(-5, 5) for _ in range(3)]
                for _ in range(rng.randint(1, 3))]
        lat = lattice_from_rows(3, rows)
        assert lat.basis == ref_canonical_key(rows, 3)


def _random_reversed_hermite(rng, ambient, bound, every_column=False):
    """A Hermite basis in the reversed frame (pivots increasing, entries in
    later pivot columns reduced) and a lead column q left of its pivots;
    with every_column, every column right of q is a pivot, as in the
    full-rank engine."""
    q = rng.randrange(ambient)
    if every_column:
        pivots = list(range(q + 1, ambient))
    else:
        pivots = sorted(rng.sample(range(q + 1, ambient),
                                   rng.randint(0, ambient - 1 - q)))
    pivot_value = {c: rng.randint(1, bound) for c in pivots}
    hnf = []
    for c in pivots:
        row = [0] * ambient
        row[c] = pivot_value[c]
        for j in range(c + 1, ambient):
            row[j] = rng.randrange(pivot_value.get(j, bound + 1))
        hnf.append(row)
    return hnf, pivots, q


def test_square_closed_rows_match_full_tail_filter():
    # the column-by-column step keeps exactly the rows that the unfiltered
    # product over every entry plus the square check and the check of the
    # products with every prefix row keeps, in the same order, each as the
    # prefix extended by it, and tries no more entries than that product
    # has: on scan-shaped inputs (leads [1, bound], some columns off-pivot,
    # where the step solves for the entries and the filter tries a box well
    # outside the [0, bound] the prefixes are drawn from) and on
    # full-rank-shaped ones (every column right of q a pivot, the leads the
    # divisors of an index)
    rng = random.Random(20181221)
    for case in range(600):
        ambient = rng.randint(1, 5)
        bound = rng.randint(1, 4)
        if case < 300:
            hnf, pivots, q = _random_reversed_hermite(rng, ambient, bound)
            leads = range(1, bound + 1)
        else:
            hnf, pivots, q = _random_reversed_hermite(rng, ambient, bound,
                                                      every_column=True)
            index = rng.randint(1, 24)
            leads = [d for d in range(1, index + 1) if index % d == 0]
        pivot_value = {c: row[c] for row, c in zip(hnf, pivots)}
        box = range(-bound - 2, 2 * bound + 3)
        tail = [range(pivot_value[c]) if c in pivot_value else box
                for c in range(q + 1, ambient)]
        expected = []
        for d in leads:
            for rest in itertools.product(*tail):
                v = [0] * q + [d, *rest]
                if all(_in_span([v] + hnf, [q] + pivots,
                                [a * b for a, b in zip(u, v)], ambient)
                       for u in [v] + hnf):
                    expected.append([v] + hnf)
        steps = _Steps(10 ** 9)
        got = _closed_extensions(hnf, pivots, q, leads, ambient, steps)
        assert got == expected, (hnf, pivots, q, list(leads), bound)
        full = sum(1 for _ in itertools.product(leads, *tail))
        assert len(leads) <= steps.used <= full * (ambient - q)


def test_every_scan_prefix_has_a_pivot_square(monkeypatch):
    # the fact the scan's leads rest on: every prefix `_closed_extensions`
    # returns to the scan has a pivot square, so its torsion is its lead
    # product, and that torsion divides r
    extensions = _closed_extensions
    seen = []

    def checked(hnf, pivots, q, leads, ambient, steps):
        out = extensions(hnf, pivots, q, leads, ambient, steps)
        for rows in out:
            assert intlinalg._pivot_square(rows) is not None, rows
            torsion = intlinalg._echelon_torsion(rows)
            assert torsion == math.prod(next(x for x in row if x)
                                        for row in rows), rows
            assert r % torsion == 0, (rows, r)
            seen.append(len(rows))
        return out

    monkeypatch.setattr(enumeration, "_closed_extensions", checked)
    for n, k, r in ((1, 3, 10), (2, 1, 6), (2, 2, 8), (3, 1, 4)):
        for bound in (1, 2):
            enumerate_corank_oracle(n + k, k, r, bound)
    assert len(seen) > 800 and max(seen) == 3


# the names each route must not reach: the scan never touches the formula
# side, and the full-rank engine never touches the scan
FORMULA_SIDE = {"stirling2", "count_full_rank", "_full_rank_worker",
                "decompose", "_split", "apply_map", "enumerate_ordered_maps"}
SCAN_SIDE = {"_corank_worker", "_census", "enumerate_corank_oracle"}


def _names_used(func):
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


def test_routes_stay_independent():
    for func in (_corank_worker, _closed_extensions, _census):
        assert not _names_used(func) & FORMULA_SIDE, func.__name__
    assert not _names_used(_full_rank_worker) & SCAN_SIDE
    # the check reads the bodies it claims to read
    assert "_closed_extensions" in _names_used(_corank_worker)
    assert "_closed_extensions" in _names_used(_full_rank_worker)
