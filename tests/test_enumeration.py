"""Counting engines: full-rank enumeration, staircase census, factorization.

The heavier cross-checks pit the pruned engine against the unpruned reference
scan in refimpl; the frozen count tables below were produced by that reference
implementation before the engine existed and must never be edited to make a
test pass.
"""

import functools
import gc
import hashlib
import itertools
import json
import math
import multiprocessing
import operator
import os
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from multlat.cache import CountRecord
from multlat.enumeration import (
    VerificationReport,
    count_corank_formula,
    count_full_rank,
    count_unital,
    decompose,
    enumerate_corank_oracle,
    enumerate_full_rank_multiplicative,
    verify_corank_factorization,
)
import multlat.enumeration as enumeration
import multlat.intlinalg as intlinalg
import multlat.lattice as lattice
import multlat.partitions as partitions
import multlat.scan as scan
from multlat.enumeration import (_in_span, _census, _place, _unital_basis,
                                 _verify)
from multlat.scan import (
    DEFAULT_BUDGET,
    SearchBudgetExceeded,
    _closed_extensions,
    _corank_worker,
    _divisors,
    _Steps,
)
from multlat.lattice import (
    Lattice,
    _column_labels,
    banded_basis,
    is_multiplicative,
    lattice_from_rows,
    torsion_size,
)
from multlat.partitions import (
    AcceptableMap,
    apply_map,
    enumerate_ordered_maps,
    stirling2,
)

from refimpl import (
    is_growth_string,
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
        assert lats == sorted(lats, key=lambda l: l.basis[::-1])
        for lat in lats:
            assert lat.ambient_dim == len(lat.basis) == n
            assert is_multiplicative(lat)
            assert torsion_size(lat) == r


def test_enumerate_full_rank_jobs_split_agrees():
    for n, r in ((2, 12), (3, 6)):
        assert enumerate_full_rank_multiplicative(n, r) == \
            enumerate_full_rank_multiplicative(n, r, jobs=3)


def test_jobs_run_on_no_more_processes_than_cores(monkeypatch, step_totals):
    # jobs=64 makes a shard per first-row lead, 3 for the divisors of 4
    # and 2 for those of 2, each with its own budget, and pools no more
    # processes than there are cores; the fake pool records its size and
    # tasks and maps in this process, so no process starts
    sizes = []
    tasks = []

    class Pool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, shards):
            tasks.extend(shards)
            return [func(task) for task in shards]

    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: SimpleNamespace(Pool=Pool))
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    sharded = enumerate_full_rank_multiplicative(3, 4, jobs=64)
    assert len(step_totals) == 3
    assert sharded == enumerate_full_rank_multiplicative(3, 4, jobs=1)
    assert enumerate_corank_oracle(3, 1, 2, jobs=64) == \
        enumerate_corank_oracle(3, 1, 2)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    enumerate_full_rank_multiplicative(3, 4, jobs=5)
    # rank 0 is answered without a pool
    assert enumerate_corank_oracle(2, 2, 1, jobs=64) == [Lattice(2, ())]
    assert sizes == [3, 2, 1]
    # jobs = 1000 makes one task per lead, and a rank-1 census, of one
    # lead, runs here with no pool
    for ambient, corank, torsion, leads in ((3, 1, 4, 3), (3, 0, 12, 6),
                                            (4, 2, 6, 4), (2, 1, 5, 0)):
        del tasks[:]
        assert _census(ambient, corank, torsion, jobs=1000, budget=None) == \
            _census(ambient, corank, torsion, jobs=1, budget=None)
        assert [task[3:5] for task in tasks] == [
            (shard, leads) for shard in range(leads)], (ambient, corank)


def test_enumerate_full_rank_arg_validation():
    with pytest.raises(ValueError):
        enumerate_full_rank_multiplicative(-1, 1)
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


def test_formula_side_checks_jobs_and_budget_at_rank_zero():
    # no worker runs at n = 0, yet bad jobs and budgets fail there as they
    # do at every other rank and in the scan at rank 0
    calls = [
        lambda **run: count_full_rank(0, 1, **run),
        lambda **run: count_unital(0, 1, **run),
        lambda **run: count_corank_formula(0, 2, 1, **run),
        lambda **run: verify_corank_factorization(0, 1, 1, **run),
        lambda **run: enumerate_corank_oracle(1, 1, 1, **run),
        lambda **run: enumerate_full_rank_multiplicative(0, 1, **run),
    ]
    for call in calls:
        for bad in ({"jobs": 0}, {"budget": 0}):
            with pytest.raises(ValueError):
                call(**bad)
    assert [call() for call in calls[:3]] == [1, 1, 1]
    report = verify_corank_factorization(0, 1, 1)
    assert report.status == "pass" and report.oracle_count == 1
    assert enumerate_full_rank_multiplicative(0, 1) == [Lattice(0, ())]


# ------------------------------------------------------------------ unital

def test_count_unital_matches_reference():
    # the reference shares no code with the scan
    cells = ([(n, r) for n in (1, 2, 3) for r in range(1, 7)]
             + [(4, r) for r in range(1, 9)] + [(5, r) for r in range(1, 5)])
    for n, r in cells:
        assert count_unital(n, r) == ref_count_unital(n, r), (n, r)


def test_unital_scan_drops_no_unital_lattice():
    # the unital count lifts the full-rank census one rank down; each cell
    # still counts every lattice of the full census of Z^n itself whose
    # basis spans (1, ..., 1)
    cells = ([(n, r) for n in (1, 2, 3, 4) for r in range(1, 17)]
             + [(5, r) for r in range(1, 9)] + [(6, r) for r in range(1, 7)])
    for n, r in cells:
        ones = [1] * n
        want = sum(_in_span(lat.basis, range(n), ones, n)
                   for lat in enumerate_full_rank_multiplicative(n, r))
        for jobs in (1, 2, 3):
            assert count_unital(n, r, jobs=jobs) == want, (n, r, jobs)


def test_unital_census_lists_exactly_the_unital_lattices():
    # each basis of the full-rank census of Z^(n-1), lifted under (1, ...,
    # 1) reduced against its rows, is a canonical basis of Z^n, so the
    # lifts are the full census's bases of Z^n that span (1, ..., 1) and no
    # other, at every jobs
    cells = ([(n, r) for n in (1, 2, 3, 4) for r in range(1, 17)]
             + [(5, r) for r in range(1, 9)])
    for n, r in cells:
        ones = [1] * n
        want = [basis for basis in scan._run_shards(n, 0, r, 1, None)
                if _in_span(basis, range(n), ones, n)]
        for jobs in (1, 2, 3):
            lifted = map(_unital_basis, scan._run_shards(n - 1, 0, r, jobs,
                                                         None))
            assert list(lifted) == want, (n, r, jobs)


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
    # the engine prunes hard; the reference scan does not prune at all. At
    # rank 3, (4, 1, 2) and (5, 2, 1), a product with a prefix row drops
    # partial rows before their last column: at pivot and off-pivot columns
    # in (4, 1, 2), at off-pivot columns right of that row's pivot in both
    cells = [
        (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4),
        (3, 1, 2), (3, 1, 3),
        (3, 2, 1), (3, 2, 2), (3, 2, 3), (3, 2, 4),
        (4, 2, 2), (4, 2, 3),
        (4, 3, 2), (4, 3, 4),
        (4, 1, 2), (5, 2, 1),
    ]
    for ambient, corank, torsion in cells:
        lats = enumerate_corank_oracle(ambient, corank, torsion)
        mine = {lat.basis for lat in lats}
        ref = ref_corank_scan(ambient, corank, torsion, torsion)
        assert mine == ref, (ambient, corank, torsion)


def test_corank_scan_matches_unpruned_reference_at_wider_bound():
    for ambient, corank, torsion in ((2, 1, 3), (3, 2, 2), (3, 1, 2)):
        lats = enumerate_corank_oracle(ambient, corank, torsion)
        mine = {lat.basis for lat in lats}
        ref = ref_corank_scan(ambient, corank, torsion, 2 * torsion)
        assert mine == ref, (ambient, corank, torsion)


def test_corank_census_banded_entries_fit_the_base_bound():
    # the scan solves for its off-pivot entries over all the integers and
    # takes only divisors of the torsion as pivots, yet every lattice it
    # finds has every banded entry in [0, torsion]: no entry is negative
    cells = [(3, 1, 4), (4, 2, 3), (4, 1, 2), (4, 3, 4)]
    for ambient, corank, torsion in cells:
        for lat in enumerate_corank_oracle(ambient, corank, torsion):
            for row in banded_basis(lat):
                assert all(0 <= x <= torsion for x in row), lat.basis


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
                found.append(hnf)
            return
        for q in range(n - 1 - len(hnf), pivots[0] if hnf else ambient):
            for h2 in _closed_extensions(hnf, pivots, q, range(1, bound + 1),
                                         ambient, steps):
                extend(h2, [q] + pivots)

    extend((), [])
    return sorted(found)


def test_corank_scan_needs_no_pivot_square_premise():
    # the scan tries only divisors of the torsion left over because a
    # closed prefix has a pivot square, the premise the formula rests on
    # too; a scan without it, with every pivot up to r and up to 2r, finds
    # the same bases on every campaign cell, so no pivot above r is missed
    for n, k, r in CAMPAIGN_CELLS:
        census = sorted(_census(n + k, k, r, jobs=1, budget=None))
        for bound in (r, 2 * r):
            assert _scan_by_smith_torsion(n + k, k, r, bound) == census, \
                (n, k, r, bound)


def test_corank_scan_jobs_split_agrees():
    for cell in ((3, 1, 3), (4, 2, 2)):
        ambient, corank, torsion = cell
        assert enumerate_corank_oracle(ambient, corank, torsion) == \
            enumerate_corank_oracle(ambient, corank, torsion, jobs=3)


def test_corank_zero_equals_full_rank_census():
    for n, r in ((2, 4), (3, 3), (0, 1), (0, 2), (0, 3)):
        for jobs in (1, 2):
            assert enumerate_corank_oracle(n, 0, r, jobs=jobs) == \
                enumerate_full_rank_multiplicative(n, r, jobs=jobs)


def test_corank_census_properties():
    lats = enumerate_corank_oracle(4, 2, 2)
    assert len(lats) == 75
    for lat in lats:
        assert lat.ambient_dim == 4 and lat.rank == 2
        assert is_multiplicative(lat)
        assert torsion_size(lat) == 2
        # rigidity: exactly rank-many distinct nonzero columns
        assert len({c for c in zip(*lat.basis) if any(c)}) == lat.rank


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
        verify_corank_factorization(1, 1, 2, 0)
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


def test_divisors_from_the_factorization_match_trial_division():
    for r in range(1, 3000):
        assert _divisors(r, DEFAULT_BUDGET) == [
            d for d in range(1, r + 1) if r % d == 0], r
    # a torsion of small primes is factored at once, whatever its size:
    # 10^16 = 2^16 * 5^16 has 17 * 17 divisors
    big = _divisors(10**16, DEFAULT_BUDGET)
    assert big == sorted({2**i * 5**j for i in range(17) for j in range(17)})


def test_divisor_trials_stop_above_the_budget():
    # a trial divisor above the budget raises at once, and one at the budget
    # does not; no trial is a step
    big = 1009 * 1013
    assert _divisors(big, 1009) == [1, 1009, 1013, big]
    with pytest.raises(SearchBudgetExceeded,
                       match="prime factor above the budget 1008"):
        _divisors(big, 1008)
    # 2 * 7: the trials stop, within the budget, once 3 * 3 exceeds the 7
    # left; 2 * 1009 has the 1009 left, a prime above the budget
    assert _divisors(2 * 7, 2) == [1, 2, 7, 14]
    with pytest.raises(SearchBudgetExceeded):
        _divisors(2 * 1009, 2)


def test_rank_one_workers_build_no_divisor_list(monkeypatch):
    # the only level of a rank-1 worker takes the torsion itself as its
    # lead, so a torsion with a large prime factor costs no trial division
    def refused(r, budget):
        raise AssertionError("a rank-1 worker built the divisor list")

    monkeypatch.setattr(scan, "_divisors", refused)
    prime = 99999999999973
    for ambient, corank in ((1, 0), (2, 1), (4, 3)):
        assert len(_census(ambient, corank, prime, jobs=1, budget=None)) == (
            stirling2(ambient + 1, 2))
    with pytest.raises(AssertionError, match="rank-1 worker"):
        _census(2, 0, prime, jobs=1, budget=None)


def test_the_divisor_budget_stop_raises_only_where_the_scan_would(monkeypatch):
    # when the trial division stops above the budget, the scan without that
    # stop raises too: a prime factor above the budget is a first-level
    # lead, and the next level pays that many steps at its pivot column
    divisors = scan._divisors
    stopped = 0
    for ambient, corank in ((2, 0), (3, 0), (3, 1), (4, 1), (4, 2)):
        for r in range(2, 300):
            for budget in (3, 7, 12):
                try:
                    _census(ambient, corank, r, jobs=1, budget=budget)
                    continue
                except SearchBudgetExceeded as exc:
                    if "prime factor" not in str(exc):
                        continue
                stopped += 1
                with monkeypatch.context() as patched:
                    patched.setattr(scan, "_divisors",
                                    lambda r, budget: divisors(r, r))
                    with pytest.raises(SearchBudgetExceeded,
                                       match="entries tried"):
                        _census(ambient, corank, r, jobs=1, budget=budget)
    assert stopped > 100, stopped


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

    monkeypatch.setattr(scan, "_Steps", Recorded)
    return made


def test_campaign_step_totals_are_pinned(step_totals):
    # steps are what the budget counts, so a change to the extension step
    # that keeps the census but tries other entries shows here: over the
    # campaign cells at jobs 1 the scan takes 3,715 steps and the formula
    # side's full-rank count 343
    for n, k, r in CAMPAIGN_CELLS:
        _census(n + k, k, r, jobs=1, budget=None)
    assert sum(steps.used for steps in step_totals) == 3715
    step_totals.clear()
    for n, k, r in CAMPAIGN_CELLS:
        count_full_rank(n, r)
    assert sum(steps.used for steps in step_totals) == 343


def test_each_engine_fits_a_budget_of_exactly_its_steps(step_totals):
    # count_unital(5, 12) takes the steps of count_full_rank(4, 12), the
    # census it lifts
    for run, used in (
            (lambda budget: _census(4, 1, 4, jobs=1, budget=budget), 517),
            (lambda budget: count_full_rank(3, 8, budget=budget), 141),
            (lambda budget: count_unital(5, 12, budget=budget), 2161)):
        expected = run(None)
        assert step_totals[-1].used == used
        assert run(used) == expected
        with pytest.raises(SearchBudgetExceeded,
                           match=f"after {used} entries"):
            run(used - 1)


def test_shards_own_leads_so_their_steps_sum_to_one_shard(step_totals):
    # a shard builds only the subtrees of its own first-level leads, so
    # the shards of a co-rank, a full-rank and a rank-1 census take every
    # step of the unsharded census once between them; at rank 1 the one
    # lead is shard 0's, and the other shards take no step
    for ambient, corank, torsion in ((4, 1, 4), (3, 0, 8), (3, 2, 4)):
        step_totals.clear()
        whole = _corank_worker((ambient, corank, torsion, 0, 1, 10 ** 9))
        total = step_totals[0].used
        for jobs in (2, 3):
            step_totals.clear()
            shards = [_corank_worker((ambient, corank, torsion, shard, jobs,
                                      10 ** 9))
                      for shard in range(jobs)]
            assert sum(steps.used for steps in step_totals) == total, \
                (ambient, corank, torsion, jobs)
            assert sorted(itertools.chain(*shards)) == sorted(whole)


def test_a_census_of_one_step_fits_a_budget_of_one():
    # the least budget taken: the census of Z at index 1 tries its one
    # lead, 1, and nothing else
    assert count_full_rank(1, 1, budget=1) == 1


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
    record = CountRecord(2, 1, 3, 18, "oracle")
    assert record == CountRecord(n=2, k=1, r=3, count=18, method="oracle")
    with pytest.raises(AttributeError):
        record.count = 19
    with pytest.raises(ValueError):
        CountRecord(2, 1, 3, 18, "guess")
    with pytest.raises(ValueError):
        CountRecord(2, 1, 0, 18, "oracle")
    with pytest.raises(ValueError):
        CountRecord(2, 1, 3, -1, "oracle")
    with pytest.raises(ValueError):
        CountRecord(2, 0, 3, 3, "formula")


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
                    assert is_growth_string(got_g.assignment)
                    assert torsion_size(got_core) == torsion_size(lat) == r


def test_decompose_full_rank_is_identity_map():
    lat = lattice_from_rows(2, [(1, 1), (0, 2)])
    g, core = decompose(lat)
    assert g.assignment == (1, 2)
    assert core == lat
    for n in (1, 2, 3):
        for r in range(1, 7):
            for lat in enumerate_full_rank_multiplicative(n, r):
                assert decompose(lat) == (
                    AcceptableMap(tuple(range(1, n + 1))), lat)


def test_decompose_zero_lattice():
    # ambient 0 included: no columns at all, and a core with no rows
    for ambient in range(4):
        g, core = decompose(Lattice(ambient, ()))
        assert g == AcceptableMap((0,) * ambient)
        assert (g.source_dim, g.target_dim) == (0, ambient)
        assert core == Lattice(0, ())


def test_decompose_rejects_non_multiplicative():
    with pytest.raises(ValueError, match="^lattice is not multiplicative$"):
        decompose(lattice_from_rows(2, [(1, 2)]))


def test_decompose_rejects_non_multiplicative_with_rigid_columns():
    # columns (1,0), (2,3), (2,3): rank-many distinct nonzero columns, yet
    # (1,2,2)^2 - (1,2,2) = (0,2,2) is not a multiple of (0,3,3)
    lat = lattice_from_rows(3, [(1, 2, 2), (0, 3, 3)])
    assert len({c for c in zip(*lat.basis) if any(c)}) == lat.rank
    with pytest.raises(ValueError, match="^lattice is not multiplicative$"):
        decompose(lat)


def test_decompose_and_a_passing_cell_carry_no_rows_through_a_map(
        monkeypatch):
    # a validated lattice, like a rectangular witness with a core's key, is
    # its core carried through its own labels (`_place`), so
    # neither decompose nor a passing cell carries rows through a map; with
    # the transport broken both give what they gave, and apply_map fails
    lat = lattice_from_rows(3, [(1, 1, 0), (0, 0, 2)])
    split = decompose(lat)
    passing = _verify(2, 1, 2, jobs=1, budget=None)

    def broken(*args):
        raise AssertionError("rows carried through a map")

    monkeypatch.setattr(partitions, "_transport_rows", broken)
    assert decompose(lat) == split == (AcceptableMap((1, 1, 2)),
                                       Lattice(2, ((1, 0), (0, 2))))
    assert _verify(2, 1, 2, jobs=1, budget=None) == passing
    assert passing[0].status == "pass"
    with pytest.raises(AssertionError, match="^rows carried through a map$"):
        apply_map(*split)


def test_decompose_returns_what_the_constructors_build():
    # decompose stores its core and map without running their constructors;
    # on every image of a full-rank lattice of index <= 8 under an ordered
    # map with n + k <= 4, both are the values the constructors accept and
    # build from the same fields, and the pair that made the image
    for n in range(5):
        cores = [core for r in range(1, 9)
                 for core in enumerate_full_rank_multiplicative(n, r)]
        for k in range(5 - n):
            for g in enumerate_ordered_maps(n, n + k):
                for core in cores:
                    got_g, got_core = decompose(apply_map(g, core))
                    assert got_core == Lattice(got_core.ambient_dim,
                                               got_core.basis) == core
                    assert got_g == AcceptableMap(got_g.assignment) == g
                    assert (got_g.source_dim, got_g.target_dim) == (n, n + k)


def test_a_witness_equal_to_a_canonical_basis_leaves_only_validated(
        monkeypatch):
    # the verifier places a rectangular witness by its key, which proves it
    # == a canonical basis of ints; a twin holding True for 1 compares
    # equal, so it is placed and counted as that basis is, and the cell
    # passes. No lattice leaves the verifier without the constructor: when
    # the cell fails on its count, the twin's core is a suspect, its
    # witnesses become Lattices, and the twin is refused
    bases = _census(3, 1, 2, jobs=1, budget=None)
    at = next(i for i, basis in enumerate(bases) if 1 in basis[0])
    twin = tuple(tuple(True if x == 1 else x for x in row)
                 for row in bases[at])
    key = _column_labels(bases[at], 3)[0]
    other = next(i for i, basis in enumerate(bases)
                 if i != at and _column_labels(basis, 3)[0] == key)
    passing = _verify(2, 1, 2, jobs=1, budget=None)
    with monkeypatch.context() as patched:
        patched.setattr(enumeration, "_census", lambda *a, **kw: [
            twin if i == at else basis for i, basis in enumerate(bases)])
        assert _verify(2, 1, 2, jobs=1, budget=None) == passing
    monkeypatch.setattr(enumeration, "_census", lambda *a, **kw: [
        twin if i == at else basis for i, basis in enumerate(bases)
        if i != other])
    with pytest.raises(RuntimeError,
                       match="^internal: engine produced an invalid basis: "
                             "non-integer entry True$"):
        _verify(2, 1, 2, jobs=1, budget=None)


def test_decompose_rejects_non_rigid_columns():
    # columns (1,0), (2,0), (3,2): three distinct nonzero columns at rank 2;
    # such a basis has no pivot square, so it is never multiplicative
    lat = lattice_from_rows(3, [(1, 2, 3), (0, 0, 2)])
    with pytest.raises(ValueError, match="^lattice is not multiplicative$"):
        decompose(lat)


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


def test_verify_names_no_offender_on_clean_cells():
    for n, k, r in ((1, 1, 3), (2, 1, 2)):
        report, found = _verify(n, k, r, jobs=1, budget=None)
        assert report == verify_corank_factorization(n, k, r)
        assert report.status == "pass" and found is None


def test_verify_names_where_the_two_sides_part(monkeypatch):
    # each way the census and the images of the maps can disagree on cell
    # (2, 1, 2) gives the smallest lattice it concerns, with its own reason;
    # only a failing cell is searched, so a fault on the formula side comes
    # with a Stirling factor that no longer matches the census; the
    # verifier reads the census as bases
    bases = _census(3, 1, 2, jobs=1, budget=None)
    census = [Lattice(3, basis) for basis in bases]
    maps = list(enumerate_ordered_maps(2, 3))
    cores = enumerate_full_rank_multiplicative(2, 2)
    imaged = []

    def counted(g, core):
        imaged.append(core)
        return apply_map(g, core)

    with monkeypatch.context() as patched:
        patched.setattr(enumeration, "_census",
                        lambda *a, **kw: bases[:7] + bases[8:])
        patched.setattr(enumeration, "apply_map", counted)
        report, found = _verify(2, 1, 2, jobs=1, budget=None)
        assert report.status == "fail"
        assert found == (census[7],
                         "reachable through a map but missed by the census")
        # only the core that came up short has its maps applied
        assert imaged == [decompose(census[7])[1]] * len(maps)
    # a core missed by the full-rank side leaves its witnesses with none; the
    # pass names the least of them, and no map is applied
    for at, core in enumerate(cores):
        with monkeypatch.context() as patched:
            patched.setattr(enumeration, "enumerate_full_rank_multiplicative",
                            lambda *a, **kw: cores[:at] + cores[at + 1:])
            patched.setattr(enumeration, "apply_map", counted)
            del imaged[:]
            report, found = _verify(2, 1, 2, jobs=1, budget=None)
            assert (report.full_rank_count, report.status) == (2, "fail")
            assert found == (
                min((lat for lat in census if decompose(lat)[1] == core),
                    key=lambda lat: lat.basis),
                "censused but not reachable through any map")
            assert imaged == []
    first_images = [apply_map(maps[0], core) for core in cores]
    for wrong_maps, named in (
            (maps[1:], (min(first_images, key=lambda lat: lat.basis),
                        "censused but not reachable through any map")),
            ([*maps, maps[0]], (first_images[0],
                                "reached through two different map/core "
                                "pairs")),
            # the true maps reach each witness once: the cell fails on its
            # count alone, and no lattice is to blame
            (maps, None)):
        with monkeypatch.context() as patched:
            patched.setattr(enumeration, "enumerate_ordered_maps",
                            lambda *a: iter(wrong_maps))
            # the counts agree, so the cell passes and is not searched
            assert _verify(2, 1, 2, jobs=1, budget=None) == (
                verify_corank_factorization(2, 1, 2), None)
            patched.setattr(enumeration, "stirling2", lambda *a: 7)
            report, found = _verify(2, 1, 2, jobs=1, budget=None)
            assert (report.formula_count, report.status) == (21, "fail")
            assert found == named


@functools.lru_cache(maxsize=None)
def _full_rank_keys(rank, r):
    return tuple((tuple(_column_labels(core.basis, rank)[0]), core)
                 for core in enumerate_full_rank_multiplicative(rank, r))


def _keyed(rank, r):
    # the full-rank lattices of index r under their keys, each with an empty
    # witness list, as the verifier holds them
    return {key: [] for key, _ in _full_rank_keys(rank, r)}


def _check_witness(lat, rank, r):
    # the verifier's pass over lat's basis alone: [] when it is placed,
    # [lat] when it is a stray
    return _place(lat.ambient_dim, [lat.basis], _keyed(rank, r), rank, r)


def test_check_witness_from_one_square(monkeypatch):
    # rigid and multiplicative, with a core of index 2
    rigid = lattice_from_rows(3, [(1, 1, 0), (0, 0, 2)])
    # a pivot square that is not closed: (1, 2)^2 = (1, 4) is not in it
    open_square = lattice_from_rows(3, [(1, 2, 2), (0, 3, 3)])
    assert lattice._pivot_square(open_square.basis) is not None
    # columns (1,0), (2,0), (3,2): three distinct nonzero columns at rank 2
    non_rigid = lattice_from_rows(3, [(1, 2, 3), (0, 0, 2)])
    assert lattice._pivot_square(non_rigid.basis) is None
    # each re-verification error, with a square and without one
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
        assert _check_witness(lat, 2, 2) == []
    # the fault: no multiplicative lattice lacks a square, so one is
    # accepted by hand, and as a stray it is reachable through no map
    accept = enumeration.is_multiplicative
    monkeypatch.setattr(enumeration, "is_multiplicative",
                        lambda lat: lat == non_rigid or accept(lat))
    assert _check_witness(non_rigid, 2, 2) == [non_rigid]
    with pytest.raises(RuntimeError, match="engine produced a wrong torsion"):
        _check_witness(non_rigid, 2, 4)


def test_witness_pass_matches_per_witness_checks(monkeypatch):
    # a cell tests closure once per full-rank lattice of index r, when the
    # full-rank census is re-verified, and the pass tests none: it places
    # each witness on one of those lattices, stirling2(n+k+1, n+1) on each,
    # and leaves no stray, as none is when checked alone; the witnesses on
    # a core are its images under the ordered maps, the fact the pass reads
    # off the key and the row widths
    closure = lattice._square_closed
    tested = []

    def counted(square):
        tested.append(square)
        return closure(square)

    for n, k, r in [*CAMPAIGN_CELLS, (3, 2, 8), (4, 2, 4), (5, 1, 4)]:
        census = _census(n + k, k, r, jobs=1, budget=None)
        alone = [_check_witness(Lattice(n + k, basis), n, r)
                 for basis in census]
        keyed = _keyed(n, r)
        assert _place(n + k, census, keyed, n, r) == [], (n, k, r)
        assert alone == [[]] * len(census), (n, k, r)
        assert [len(placed) for placed in keyed.values()] == [
            stirling2(n + k + 1, n + 1)] * len(keyed), (n, k, r)
        maps = list(enumerate_ordered_maps(n, n + k))
        for (_, core), placed in zip(_full_rank_keys(n, r), keyed.values()):
            assert set(placed) == {apply_map(g, core).basis
                                   for g in maps}, (n, k, r, core)
        del tested[:]
        with monkeypatch.context() as patched:
            patched.setattr(lattice, "_square_closed", counted)
            assert _verify(n, k, r, jobs=1, budget=None)[1] is None
        assert len(tested) == count_full_rank(n, r), (n, k, r)
        cores = {tuple(map(tuple, square)) for square in tested}
        assert len(cores) == len(tested), (n, k, r)


def test_label_key_is_the_label_dict_as_a_tuple():
    # the keys are built in one pass, not through `_column_labels`, yet
    # equal its label dict's keys at the basis's row count on every
    # campaign witness, on no rows, on rows of unequal length, where `zip`
    # stops at the shortest in both, and on an entry equal to 1, where both
    # keep the first of the equal columns (repr tells True from 1)
    bases = [basis for n, k, r in CAMPAIGN_CELLS
             for basis in _census(n + k, k, r, jobs=1, budget=None)]
    bases += [(), ((1, 0, 3), (0, 2)), ((2, 1, 1), (0, True, 1)),
              ((True, 0, 1), (0, 1, 0))]
    for basis in bases:
        want = tuple(_column_labels(basis, 3)[0])
        got, = enumeration._label_keys([basis], len(basis))
        assert got == want and repr(got) == repr(want), basis


def test_a_passing_cell_places_no_witness_one_by_one(monkeypatch):
    # a cell that passes is decided by its count, its witnesses' shapes and
    # their keys in bulk; no witness is placed on its own
    def placed(*args):
        raise AssertionError("a witness placed one by one")

    monkeypatch.setattr(enumeration, "_place", placed)
    for n, k, r in [*CAMPAIGN_CELLS, (3, 2, 8), (4, 2, 4), (5, 1, 4)]:
        report, found = _verify(n, k, r, jobs=1, budget=None)
        assert (report.status, found) == ("pass", None), (n, k, r)


def test_the_bulk_verdict_falls_back_on_every_fault(monkeypatch):
    # each fault fails the bulk verdict, so the witnesses are placed one by
    # one, and the cell gives the report and offender, or the error, pinned
    # from a run that placed every witness one by one; a row-count fault
    # shows only at ambient 0, where a key has no column but the zero one
    bases = _census(3, 1, 2, jobs=1, budget=None)
    at = bases.index(((1, 1, 0), (0, 0, 2)))
    non_rigid = lattice_from_rows(3, [(1, 2, 3), (0, 0, 2)])
    accept = enumeration.is_multiplicative
    monkeypatch.setattr(enumeration, "is_multiplicative",
                        lambda lat: lat == non_rigid or accept(lat))
    calls = []
    place = enumeration._place
    monkeypatch.setattr(enumeration, "_place",
                        lambda *a: calls.append(a) or place(*a))

    def failed(count, found):
        # cell (2, 1, 2): stirling2(4, 3) = 6 images of 3 cores
        return (VerificationReport(2, 1, 2, count, 18, 6, 3, count, "fail"),
                found)

    def swapped(basis):
        return [*bases[:at], basis, *bases[at + 1:]]

    invalid = "^internal: engine produced an invalid basis: "
    missed = (Lattice(3, bases[at]),
              "reachable through a map but missed by the census")
    for census, outcome in (
            (swapped(((1, 1, 0, 0), (0, 0, 2))),
             invalid + "basis rows must match the ambient dimension$"),
            (swapped(((1, 1, 0, 0), (0, 0, 2, 0))),
             invalid + "basis rows must match the ambient dimension$"),
            (swapped(((1, 1, 0),)),
             "^internal: engine produced a bad lattice$"),
            (swapped(non_rigid.basis), failed(18, missed)),
            (bases[:at] + bases[at + 1:], failed(17, missed)),
            (bases + [non_rigid.basis],
             failed(19, (non_rigid,
                         "censused but not reachable through any map")))):
        monkeypatch.setattr(enumeration, "_census",
                            lambda *a, census=census, **kw: list(census))
        del calls[:]
        if isinstance(outcome, str):
            with pytest.raises(RuntimeError, match=outcome):
                _verify(2, 1, 2, jobs=1, budget=None)
        else:
            assert _verify(2, 1, 2, jobs=1, budget=None) == outcome
        assert len(calls) == 1, census
    assert next(enumeration._label_keys([((),)], 0)) == ((),)
    monkeypatch.setattr(enumeration, "_census", lambda *a, **kw: [((),)])
    del calls[:]
    with pytest.raises(RuntimeError,
                       match=invalid + "basis may not contain zero rows$"):
        _verify(0, 0, 1, jobs=1, budget=None)
    assert len(calls) == 1


def test_witness_pass_reports_faults_where_they_are(monkeypatch):
    # witnesses that are not rigid, placed among closed ones, are returned
    # as they are alone, in census order, not sorted; one that is not
    # closed raises wherever it is
    non_rigid = lattice_from_rows(3, [(1, 2, 3), (0, 0, 2)])
    # columns (1,0), (3,0), (0,2): not rigid either, and greater by basis
    greater = lattice_from_rows(3, [(1, 3, 0), (0, 0, 2)])
    assert non_rigid.basis < greater.basis
    not_closed = lattice_from_rows(3, [(1, 2, 2), (0, 3, 3)])
    accept = enumeration.is_multiplicative
    monkeypatch.setattr(enumeration, "is_multiplicative",
                        lambda lat: lat in (non_rigid, greater) or accept(lat))
    census = enumerate_corank_oracle(3, 1, 2)
    for at in (0, 5, len(census)):
        mixed = census[:at] + [greater] + census[at:] + [non_rigid]
        strays = _place(3, [lat.basis for lat in mixed], _keyed(2, 2), 2, 2)
        assert strays == [greater, non_rigid]
        assert strays == [stray for lat in mixed
                          for stray in _check_witness(lat, 2, 2)]
        closed_and_not = census[:at] + [not_closed] + census[at:]
        with pytest.raises(RuntimeError, match="engine produced a bad lattice"):
            _place(3, [lat.basis for lat in closed_and_not], _keyed(2, 2),
                   2, 2)


def test_verify_names_the_least_stray_in_every_census_order(monkeypatch):
    # two strays added to a real census: the offender is the least one by
    # basis, which comes last in the census as given, and the same one
    # whatever order the census is in
    non_rigid = lattice_from_rows(3, [(1, 2, 3), (0, 0, 2)])
    greater = lattice_from_rows(3, [(1, 3, 0), (0, 0, 2)])
    assert non_rigid.basis < greater.basis
    accept = enumeration.is_multiplicative
    monkeypatch.setattr(enumeration, "is_multiplicative",
                        lambda lat: lat in (non_rigid, greater) or accept(lat))
    bases = _census(3, 1, 2, jobs=1, budget=None) + [greater.basis,
                                                      non_rigid.basis]
    rng = random.Random(52)
    orders = [bases, bases[::-1], [*bases[-1:], *bases[:-1]]]
    orders += [rng.sample(bases, len(bases)) for _ in range(5)]
    for order in orders:
        monkeypatch.setattr(enumeration, "_census",
                            lambda *a, order=order, **kw: list(order))
        report, found = _verify(2, 1, 2, jobs=1, budget=None)
        assert report.status == "fail"
        assert found == (non_rigid,
                         "censused but not reachable through any map")


def test_oracle_reverifies_once_per_pivot_square(monkeypatch):
    # the oracle re-verifies one lattice per distinct-column key, so it
    # tests closure once per core, one per full-rank lattice of index r;
    # at full rank each lattice is its own key, so the full-rank engine,
    # the oracle at co-rank 0 and the unital lift test every lattice once
    closure = lattice._square_closed
    tested = []

    def counted(square):
        tested.append(square)
        return closure(square)

    for n, k, r in [*CAMPAIGN_CELLS, (3, 2, 8), (4, 2, 4), (5, 1, 4)]:
        cores = count_full_rank(n, r)
        del tested[:]
        with monkeypatch.context() as patched:
            patched.setattr(lattice, "_square_closed", counted)
            lats = enumerate_corank_oracle(n + k, k, r)
        assert len(tested) == cores, (n, k, r)
        assert len({tuple(map(tuple, square)) for square in tested}) == cores
        assert len(lats) == stirling2(n + k + 1, n + 1) * cores, (n, k, r)
    for n, r in ((2, 12), (3, 8), (4, 4)):
        cores = count_full_rank(n, r)
        for count in (lambda: len(enumerate_full_rank_multiplicative(n, r)),
                      lambda: len(enumerate_corank_oracle(n, 0, r)),
                      lambda: count_unital(n + 1, r)):
            del tested[:]
            with monkeypatch.context() as patched:
                patched.setattr(lattice, "_square_closed", counted)
                assert count() == cores, (n, r)
            assert len(tested) == cores, (n, r)
            assert len({tuple(map(tuple, square))
                        for square in tested}) == cores, (n, r)


def test_oracle_rejects_a_bad_lattice_wherever_it_is(monkeypatch):
    # a lattice with a pivot square of its own is re-verified wherever the
    # census puts its basis, with the message each failed check gives
    census = _census(3, 1, 2, jobs=1, budget=None)
    cases = [
        # a pivot square that is not closed: (1, 2)^2 = (1, 4) is not in it
        (lattice_from_rows(3, [(1, 2, 2), (0, 3, 3)]), "bad lattice"),
        # rigid and closed, of torsion 3
        (lattice_from_rows(3, [(1, 1, 0), (0, 0, 3)]), "wrong torsion"),
        # rigid and closed, of rank 1
        (lattice_from_rows(3, [(1, 1, 1)]), "bad lattice"),
    ]
    for bad, fault in cases:
        assert bad.basis not in census
        for at in (0, len(census) // 2, len(census)):
            mixed = census[:at] + [bad.basis] + census[at:]
            with monkeypatch.context() as patched:
                patched.setattr(enumeration, "_census",
                                lambda *args, **kwargs: mixed)
                with pytest.raises(RuntimeError,
                                   match=f"^internal: engine produced a "
                                         f"{fault}$"):
                    enumerate_corank_oracle(3, 1, 2)


def _all_shards_in_each(args):
    # a sharding fault: every shard lists the whole census
    *head, _shard, _jobs, budget = args
    return _corank_worker((*head, 0, 1, budget))


def _first_basis_again_in_last_shard(args):
    # a sharding fault: the last shard lists shard 0's first basis after
    # its own bases, far from its place in the census; module level, so a
    # fork pool can take it
    *head, shard, jobs, budget = args
    found = _corank_worker(args)
    if shard == jobs - 1:
        found = found + _corank_worker((*head, 0, jobs, budget))[:1]
    return found


TWICE = "^internal: engine produced a lattice twice$"


def test_each_engine_rejects_a_lattice_found_twice(monkeypatch):
    runs = (lambda: enumerate_full_rank_multiplicative(3, 4),
            lambda: enumerate_corank_oracle(3, 1, 2),
            lambda: verify_corank_factorization(2, 1, 2))
    # the repeat next to its first copy, and the first basis appended last
    for again in (slice(-1, None), slice(None, 1)):
        with monkeypatch.context() as patched:
            patched.setattr(scan, "_corank_worker",
                            lambda args: (_corank_worker(args)
                                          + _corank_worker(args)[again]))
            for run in runs:
                with pytest.raises(RuntimeError, match=TWICE):
                    run()
    # the same lattice from two shards, at non-adjacent places in their
    # outputs: the merge must still tell a repeat from disorder
    with monkeypatch.context() as patched:
        patched.setattr(scan, "_corank_worker",
                        _first_basis_again_in_last_shard)
        for jobs in (1, 2):
            with pytest.raises(RuntimeError, match=TWICE):
                enumerate_full_rank_multiplicative(3, 4, jobs=jobs)
            with pytest.raises(RuntimeError, match=TWICE):
                enumerate_corank_oracle(3, 1, 2, jobs=jobs)
    # every shard lists the whole census
    monkeypatch.setattr(scan, "_corank_worker", _all_shards_in_each)
    assert len(enumerate_full_rank_multiplicative(3, 4, jobs=1)) == 13
    with pytest.raises(RuntimeError, match=TWICE):
        enumerate_full_rank_multiplicative(3, 4, jobs=2)


def _second_and_third_swapped(args):
    # a scan fault: a shard of three or more bases lists its second and
    # third in each other's place, and no basis twice; module level, so a
    # fork pool can take it
    found = _corank_worker(args)
    if len(found) > 2:
        found[1], found[2] = found[2], found[1]
    return found


DISORDER = "^internal: engine produced the census out of order$"


def test_each_engine_rejects_a_census_out_of_order(monkeypatch):
    # a sort would hide the swap; the order check finds it in the merged
    # census, at each jobs. At jobs 1 the swapped pair is the census's
    # second and third, which a check of every other neighbour pair, the
    # first and second, the third and fourth, and so on, never compares
    monkeypatch.setattr(scan, "_corank_worker", _second_and_third_swapped)
    for jobs in (1, 2):
        for run in (
                lambda: enumerate_full_rank_multiplicative(3, 4, jobs=jobs),
                lambda: enumerate_corank_oracle(3, 1, 2, jobs=jobs),
                lambda: verify_corank_factorization(2, 1, 2, jobs=jobs)):
            with pytest.raises(RuntimeError, match=DISORDER):
                run()


def test_every_shard_lists_its_bases_in_census_order():
    # the walk itself, not `_run_shards`' check: each shard's bases
    # strictly decrease by their rows read oldest first, so a merge of the
    # shards needs no sort
    for ambient in range(1, 6):
        for corank in range(ambient):
            for torsion in range(1, 9):
                for jobs in (1, 2, 3):
                    for shard in range(jobs):
                        keys = [basis[::-1] for basis in _corank_worker(
                            (ambient, corank, torsion, shard, jobs, 10 ** 9))]
                        assert all(map(operator.gt, keys, keys[1:])), \
                            (ambient, corank, torsion, shard, jobs)


def test_every_small_census_matches_its_committed_digest():
    """Each census `_run_shards` lists, with ambient <= 6, co-rank < ambient
    and torsion <= 12 (<= 6 at ambient 6), 216 cells and 102,251 bases, has
    the digest committed in tests/data/census_digests.json: the SHA-256 hex
    digest of the UTF-8 `repr` of the list, keyed "ambient,corank,torsion".
    Every cell is listed at jobs 1, and the 12 with the most bases at jobs 2
    too, where the shards are merged.

    The file was written by the engine, not by refimpl. It may still gate
    the engine: `verify` checks each census against the formula side and
    re-verifies its lattices, and the order tests pin each list's order, so
    each cell's content and order are justified there, and the file was
    written from a tree that passed them. A digest that differs names a cell
    whose census changed in content or order, which must be justified again
    before the file is written anew, by the same hash of every cell."""
    path = Path(__file__).parent / "data" / "census_digests.json"
    want = json.loads(path.read_text(encoding="utf-8"))
    cells = [(ambient, corank, torsion) for ambient in range(1, 7)
             for corank in range(ambient)
             for torsion in range(1, (6 if ambient == 6 else 12) + 1)]
    assert list(want) == ["%d,%d,%d" % cell for cell in cells]
    sizes = {}
    for cell in cells:
        bases = scan._run_shards(*cell, 1, None)
        sizes[cell] = len(bases)
        digest = hashlib.sha256(repr(bases).encode()).hexdigest()
        assert digest == want["%d,%d,%d" % cell], cell
    assert sum(sizes.values()) == 102_251
    for cell in sorted(cells, key=sizes.get)[-12:]:
        bases = scan._run_shards(*cell, 2, None)
        digest = hashlib.sha256(repr(bases).encode()).hexdigest()
        assert digest == want["%d,%d,%d" % cell], cell


def _rows_added(bases):
    # an engine fault: the first basis's top row gains the row below it,
    # so its entry above that row's pivot is no longer reduced
    (top, below, *rest), *others = bases
    return [(tuple(a + b for a, b in zip(top, below)), below, *rest), *others]


def test_a_basis_failing_validation_is_an_internal_error(monkeypatch):
    # the Lattice constructor's ValueError would read as a usage error;
    # _lattices turns it into the engines' failed self-check, with the
    # constructor's reason
    monkeypatch.setattr(scan, "_corank_worker",
                        lambda args: _rows_added(_corank_worker(args)))
    for run in (lambda: enumerate_full_rank_multiplicative(3, 4),
                lambda: enumerate_corank_oracle(3, 1, 2),
                lambda: verify_corank_factorization(2, 1, 2)):
        with pytest.raises(RuntimeError,
                           match="^internal: engine produced an invalid "
                                 "basis: basis is not in canonical "
                                 "Hermite form$") as exc:
            run()
        assert isinstance(exc.value.__cause__, ValueError)


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
        assert sorted(back, key=lambda lat: lat.basis[::-1]) == census, \
            (n, k, r)


def test_measured_paths_never_reach_the_general_routines(monkeypatch):
    # every basis the campaign and the round trip meet has a pivot square,
    # so the Smith diagonal is never needed there
    def refuse(*args, **kwargs):
        raise AssertionError("general routine reached")

    monkeypatch.setattr(lattice, "smith_normal_form", refuse)
    # the patch is live: a basis with no pivot square reaches it
    with pytest.raises(AssertionError, match="general routine reached"):
        torsion_size(lattice_from_rows(3, [(1, 2, 3), (0, 0, 2)]))
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
    later pivot columns reduced), as a tuple of row tuples, and a lead
    column q left of its pivots; with every_column, every column right of q
    is a pivot, as in the full-rank engine."""
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
        hnf.append(tuple(row))
    return tuple(hnf), pivots, q


def test_square_closed_rows_match_full_tail_filter():
    # the column-by-column step keeps exactly the rows that the unfiltered
    # product over every entry plus the square check and the check of the
    # products with every prefix row keeps, in the same order, each as the
    # prefix extended by it, and tries no more entries than that product
    # has: on scan-shaped inputs (leads [1, bound], some columns off-pivot,
    # where the step solves for the entries and the filter tries a box well
    # outside the [0, bound] the prefixes are drawn from) and on
    # full-rank-shaped ones (every column right of q a pivot, the leads the
    # divisors of an index). The step tests no product with a prefix row
    # that is zero right of its pivot, so both kinds of prefix are counted:
    # with such a row, and non-empty without one
    rng = random.Random(20181221)
    single = without = 0
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
        if any(not any(row[c + 1:]) for row, c in zip(hnf, pivots)):
            single += 1
        elif hnf:
            without += 1
        box = range(-bound - 2, 2 * bound + 3)
        tail = [range(pivot_value[c]) if c in pivot_value else box
                for c in range(q + 1, ambient)]
        expected = []
        for d in leads:
            for rest in itertools.product(*tail):
                v = [0] * q + [d, *rest]
                if all(_in_span((v, *hnf), [q] + pivots,
                                [a * b for a, b in zip(u, v)], ambient)
                       for u in (v, *hnf)):
                    expected.append((tuple(v), *hnf))
        steps = _Steps(10 ** 9)
        got = _closed_extensions(hnf, pivots, q, leads, ambient, steps)
        assert got == expected, (hnf, pivots, q, list(leads), bound)
        full = sum(1 for _ in itertools.product(leads, *tail))
        assert len(leads) <= steps.used <= full * (ambient - q)
    assert single >= 200 and without >= 10, (single, without)


def test_every_scan_prefix_has_a_pivot_square(monkeypatch):
    # the fact the scan's leads rest on: every prefix `_closed_extensions`
    # returns to the scan has a pivot square, so its torsion is its lead
    # product, and that torsion divides r
    extensions = _closed_extensions
    seen = []

    def checked(hnf, pivots, q, leads, ambient, steps):
        out = extensions(hnf, pivots, q, leads, ambient, steps)
        for rows in out:
            assert lattice._pivot_square(rows) is not None, rows
            torsion = lattice._echelon_torsion(rows)
            assert torsion == math.prod(next(x for x in row if x)
                                        for row in rows), rows
            assert r % torsion == 0, (rows, r)
            seen.append(len(rows))
        return out

    monkeypatch.setattr(scan, "_closed_extensions", checked)
    for n, k, r in ((1, 3, 10), (2, 1, 6), (2, 2, 8), (3, 1, 4)):
        enumerate_corank_oracle(n + k, k, r)
    assert len(seen) > 400 and max(seen) == 3


def test_census_bases_share_the_rows_of_their_prefix():
    # rows 1.. of a census basis are the prefix it extends, and the scan
    # builds each prefix once: every basis with the same rows below its top
    # holds the very same row objects there, at one job and after a shard's
    # bases are pickled back at two, so the census holds fewer distinct rows
    # than it has rows. One co-rank cell, (2,2,8), and one full-rank, (4,16)
    for ambient, corank, torsion in ((4, 2, 8), (4, 0, 16)):
        for jobs in (1, 2):
            bases = _census(ambient, corank, torsion, jobs=jobs, budget=None)
            groups = {}
            for basis in bases:
                groups.setdefault(basis[1:], []).append(basis)
            assert max(map(len, groups.values())) > 1
            for group in groups.values():
                for basis in group:
                    assert all(row is first for row, first
                               in zip(basis[1:], group[0][1:])), basis
            rows = [row for basis in bases for row in basis]
            assert len({id(row) for row in rows}) < len(rows), (ambient, jobs)


@pytest.mark.parametrize("call", [
    lambda: _census(4, 2, 8, jobs=1, budget=None),
    lambda: enumerate_corank_oracle(4, 2, 8),
    lambda: enumerate_full_rank_multiplicative(4, 12),
    lambda: count_unital(5, 12),
    lambda: _verify(2, 2, 8, jobs=1, budget=None),
    lambda: list(enumerate_ordered_maps(3, 5)),
], ids=["census", "corank-oracle", "full-rank", "unital", "verify",
        "ordered-maps"])
def test_engine_calls_leave_no_cyclic_garbage(call):
    # no engine call makes a reference cycle, so reference counting frees
    # every object it made, a cell's census included, when it returns
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()

