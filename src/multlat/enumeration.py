"""The counting engines and the factorization verifier.

One scan, `_corank_worker` with its step `_closed_extensions`, is both
engines: the co-rank census (`enumerate_corank_oracle`) and, at co-rank 0,
the full-rank census (`enumerate_full_rank_multiplicative`). `_run_shards`
runs it, `_lattices` and `_reverify` check its output, and `_verify` pits
each cell's census against the formula, witness by witness
(`_witness_faults`). Each argument has one home, the docstring of the
function that rests on it.
"""

from __future__ import annotations

import os
from itertools import chain, islice
from math import isqrt
from operator import eq
from typing import Iterable, Iterator, NamedTuple, Optional

from .intlinalg import _in_span
from .lattice import (Lattice, _column_labels, _square_closed,
                      is_multiplicative, torsion_size)
from .partitions import (
    AcceptableMap,
    apply_map,
    enumerate_ordered_maps,
    stirling2,
)

DEFAULT_BUDGET = 50_000_000


class SearchBudgetExceeded(RuntimeError):
    """Raised when an enumeration hits its per-worker candidate budget."""


class VerificationReport(NamedTuple):
    """Outcome of one verification cell: status is 'pass' exactly when the
    census count equals the formula count and no witness fails (`_verify`)."""

    n: int
    k: int
    r: int
    oracle_count: int
    formula_count: int
    stirling_factor: int
    full_rank_count: int
    witnesses_checked: int
    status: str

    def as_dict(self) -> dict:
        return self._asdict()


# ---------------------------------------------------------------------------
# shared low-level helpers (hot path: plain tuples, no object churn)


class _Steps:
    """One worker's count of entries tried, checked against its budget."""

    __slots__ = ("used", "budget")

    def __init__(self, budget: int) -> None:
        self.used = 0
        self.budget = budget

    def spend(self, entries: int) -> None:
        self.used += entries
        if self.used > self.budget:
            raise SearchBudgetExceeded(
                f"search budget exhausted after {self.used} entries tried "
                f"(budget {self.budget})")


def _check_cell(ambient: int, corank: int, torsion: int) -> None:
    """ValueError unless `_run_shards` takes the cell."""
    if not 0 <= corank <= ambient:
        raise ValueError("need 0 <= corank <= ambient")
    if torsion < 1:
        raise ValueError("torsion must be at least 1")


def _run_shards(ambient: int, corank: int, torsion: int, jobs: int,
                budget: Optional[int]) -> list[tuple[tuple[int, ...], ...]]:
    """The sorted census of both engines, as bases: every shard's bases of the
    given co-rank and torsion, full rank at co-rank 0.

    The cell rule, 0 <= corank <= ambient and torsion >= 1, is checked here
    first for every census (`_check_cell`), then jobs and budget, budget
    None meaning DEFAULT_BUDGET. Rank 0 (ambient == corank) starts no
    worker: the zero lattice has torsion 1, so it gives [()] at torsion 1
    and [] otherwise. jobs = 1 runs `_corank_worker` here; more run jobs
    shards, each with its own budget, in a fork pool of min(jobs,
    os.cpu_count()) processes. The shards split the steps of jobs = 1
    (`_corank_worker`), so a run that completes at jobs = 1 completes at
    every jobs with the same census, and one that a budget stops may
    complete at more. The worker builds each lattice once, so a basis found
    twice, in one shard or two, is an internal error; the sort puts copies
    side by side, so comparing neighbours finds every repeat.
    """
    _check_cell(ambient, corank, torsion)
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    budget = DEFAULT_BUDGET if budget is None else budget
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if ambient == corank:
        return [()] if torsion == 1 else []
    tasks = [(ambient, corank, torsion, shard, jobs, budget)
             for shard in range(jobs)]
    if jobs == 1:
        bases = _corank_worker(tasks[0])
    else:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(min(jobs, os.cpu_count() or 1)) as pool:
            bases = list(chain.from_iterable(pool.map(_corank_worker, tasks)))
    bases.sort()
    if any(map(eq, bases, islice(bases, 1, None))):
        raise RuntimeError("internal: engine produced a lattice twice")
    return bases


def _lattices(ambient: int, bases: Iterable[tuple[tuple[int, ...], ...]]
              ) -> list[Lattice]:
    """The engine's bases as Lattices, each validated by the constructor.

    A basis it rejects is an internal error: its ValueError (a usage error,
    exit 2, on the command line) is raised again as RuntimeError "internal:
    engine produced an invalid basis: ...", a failed self-check (exit 3).
    """
    try:
        return [Lattice(ambient, b) for b in bases]
    except ValueError as exc:
        raise RuntimeError(
            f"internal: engine produced an invalid basis: {exc}") from exc


# ---------------------------------------------------------------------------
# full-rank enumeration: upper-triangular Hermite bases with fixed determinant


def enumerate_full_rank_multiplicative(n: int, index: int, *, jobs: int = 1,
                                       budget: Optional[int] = None) -> list[Lattice]:
    """All full-rank multiplicative sublattices of Z^n with the given index,
    sorted by basis, each once: the census of `_corank_worker` at co-rank 0,
    re-verified lattice by lattice (`_reverify`). Z^0 is the one lattice at
    n = 0, of index 1. The cell rule, jobs and budget are `_run_shards`'.
    """
    lats = _lattices(n, _run_shards(n, 0, index, jobs, budget))
    _reverify(lats, n, index)
    return lats


def count_full_rank(n: int, index: int, *, jobs: int = 1,
                    budget: Optional[int] = None) -> int:
    """Number of full-rank multiplicative sublattices of Z^n of given index.

    At n = 0 that is 1 for index 1, Z^0 itself, and 0 for any other.
    """
    return len(enumerate_full_rank_multiplicative(n, index, jobs=jobs, budget=budget))


def count_unital(n: int, index: int, *, jobs: int = 1,
                 budget: Optional[int] = None) -> int:
    """Number of index-`index` subrings of Z^n containing (1, ..., 1), by
    exact division (`intlinalg._in_span`). At n = 0 the empty product makes
    Z^0 itself the single subring, of index 1.
    """
    lats = enumerate_full_rank_multiplicative(n, index, jobs=jobs, budget=budget)
    ones = [1] * n
    # a full-rank Hermite basis pivots on the diagonal
    return sum(_in_span(lat.basis, range(n), ones, n) for lat in lats)


# ---------------------------------------------------------------------------
# co-rank oracle: canonical banded bases, pivots dividing the torsion


def _closed_extensions(hnf: tuple[tuple[int, ...], ...], pivots: list[int],
                       q: int, leads: Iterable[int], ambient: int,
                       steps: _Steps) -> list[tuple[tuple[int, ...], ...]]:
    """The bases (v, *hnf), v = 0^q, d, x_(q+1), ..., closed under products.

    The worker's one extension step. hnf is a closed Hermite basis, a prefix
    in the reversed frame with pivots right of q, and each basis returned
    holds hnf's own row tuples. d runs over leads, an entry in a pivot column
    of hnf over [0, pivot) and every other entry over the integers; the bases
    come back in lexicographic order.
    The span is closed when v*v and each u*v, u in hnf, lie in it. At column
    q only v is nonzero, v*v is d*d and u*v is 0, as u is zero left of its
    pivot; so v*(v - d) and each u*v must lie in hnf's span. A u zero right
    of its pivot c needs no test: u*v = v[c]*u. Each product is reduced
    against hnf column by column, the multiples of the pivot rows taken so
    far summed in its accumulator (`acc` for v*(v - d), one in `accs` per
    tested u). Its residual at column j, x(x - d) - acc[j] or u[j]*x - a[j]
    for u's accumulator a, is fixed once x_j is. It must be 0 off a pivot; on
    one the pivot must divide it, and the quotient times the pivot row goes
    into the accumulator. So a partial row is dropped at the first column
    where a product fails, and a full row gives a closed span. Off a pivot
    x(x - d) = acc[j], so x runs over the roots (d - s)/2 and (d + s)/2, s =
    isqrt(d*d + 4*acc[j]), when that is a perfect square; s = d mod 2 then,
    so both are integers. A residual of 0 passes its accumulator on, and none
    is changed in place, so entries share them. One budget step, charged to
    `steps`, is one lead, one entry tried in a pivot column or one off-pivot
    column, whose entries are solved for; co-rank 0 has none, and a dropped
    row takes no step further.
    """
    pivot_row: list[Optional[tuple[int, ...]]] = [None] * ambient
    for row, c in zip(hnf, pivots):
        pivot_row[c] = row
    tested = [row for row, c in zip(hnf, pivots) if any(row[c + 1:])]
    v = [0] * ambient
    out: list[tuple[tuple[int, ...], ...]] = []

    def fill(j: int, d: int, acc: list[int], accs: list[list[int]]) -> None:
        if j == ambient:
            out.append((tuple(v), *hnf))
            return
        row = pivot_row[j]
        if row is None:
            steps.spend(1)
            disc = d * d + 4 * acc[j]
            s = isqrt(disc) if disc > 0 else 0
            if s * s == disc:
                for x in ((d - s) // 2, (d + s) // 2) if s else (d // 2,):
                    for u, a in zip(tested, accs):
                        if u[j] * x != a[j]:
                            break
                    else:
                        v[j] = x
                        fill(j + 1, d, acc, accs)
            return
        p = row[j]
        steps.spend(p)
        aj = acc[j]
        for x in range(p):
            res = x * (x - d) - aj
            if res % p:
                continue
            moved = []
            for u, a in zip(tested, accs):
                m = u[j] * x - a[j]
                if m:
                    if m % p:
                        break
                    m //= p
                    a = [b + m * c for b, c in zip(a, row)]
                moved.append(a)
            else:
                v[j] = x
                m = res // p
                fill(j + 1, d, [a + m * b for a, b in zip(acc, row)]
                     if m else acc, moved)

    zero = [0] * ambient
    zeros = [zero] * len(tested)
    try:
        for d in leads:
            steps.spend(1)
            v[q] = d
            fill(q + 1, d, zero, zeros)
    finally:
        # fill calls itself through its own closure cell; emptying the cell
        # breaks that cycle, so fill and its lists are freed at return
        del fill
    return out


def _corank_worker(args: tuple[int, int, int, int, int, int]
                   ) -> list[tuple[tuple[int, ...], ...]]:
    """One shard's share of the census, full-rank or not, as canonical
    Hermite bases of the reversed lattices.

    Rows are built in the reversed column frame, where a banded basis
    (`lattice.banded_basis`) read newest row first is a Hermite basis: the
    row of level i, whose banded pivot is at column p_i, leads at column
    ambient - 1 - p_i, so the rows so far span L cut down to a coordinate
    section, where `_closed_extensions` decides membership by exact
    division. A complete basis is the canonical Hermite basis of rev(L), L
    with its coordinates reversed. Reversal permutes coordinates, so it is a
    ring automorphism, its own inverse, that keeps rank, torsion and
    closure: it maps the census onto itself, and the sorted rev(L) are the
    sorted census, with no Hermite form computed.

    Rows come from `_closed_extensions`, from the empty prefix, depth first.
    Each row is a tuple made once, so the bases that extend a prefix share
    its row objects. A closed prefix has a pivot square
    (`lattice._pivot_square`), so its torsion is its lead product, and it
    spans a primitive sublattice of L, so that torsion divides r. Each level
    thus tries as leads only the divisors of the torsion left over, from one
    list (`_divisors`, not built at rank 1), and the last level that quotient
    alone: no torsion is tested and nothing needs a bound. At co-rank 0 every
    column right of a lead is a pivot, so the worker builds the
    upper-triangular Hermite bases of index r, the full-rank census. The
    rank ambient - corank is at least 1 (`_run_shards` answers rank 0).

    The shard owns leads: at the first level it tries every jobs-th lead from
    the shard-th on, below them every lead, so it builds only its own leads'
    subtrees, and the shards' steps sum to those of jobs = 1.
    """
    ambient, corank, torsion, shard, jobs, budget = args
    n = ambient - corank
    found: list[tuple[tuple[int, ...], ...]] = []
    steps = _Steps(budget)
    divisors = _divisors(torsion, budget) if n > 1 else []

    def extend(hnf: tuple[tuple[int, ...], ...], pivots: list[int], left: int,
               start: int = 0, step: int = 1) -> None:
        # the level takes every step-th lead from the start-th on;
        # banded row len(hnf) ends on a column p <= len(hnf) + corank
        last = len(hnf) == n - 1
        leads = ([left] if last else
                 [d for d in divisors if left % d == 0])[start::step]
        for q in range(n - 1 - len(hnf), pivots[0] if hnf else ambient):
            below = [q] + pivots
            for h2 in _closed_extensions(hnf, pivots, q, leads, ambient, steps):
                if last:
                    found.append(h2)
                else:
                    extend(h2, below, left // h2[0][q])

    try:
        extend((), [], torsion, shard, jobs)
    finally:
        # as in `_closed_extensions`: no cycle keeps extend, or the census
        # through found, alive past return
        del extend
    return found


def _divisors(r: int, budget: int) -> list[int]:
    """The divisors of r >= 1, ascending, for a worker of rank >= 2.

    Trial division divides each prime out of r as it finds it and stops once
    the square of the next trial exceeds what is left, which is then 1 or a
    prime, so a torsion of small primes costs little whatever its size.
    A trial above the budget raises SearchBudgetExceeded; no trial is a
    step. The worker would raise anyway: what is left of r then has a prime
    factor p above the budget, a first-level lead. Its shard builds p*e_q,
    and a next-level row reaches column q through the root 0 of each
    off-pivot column before it, which carries nothing forward; q is a pivot
    column of pivot p, so its entries cost p steps, more than the budget.
    """
    divisors = [1]
    p = 2
    while p * p <= r:
        if p > budget:
            raise SearchBudgetExceeded(
                f"search budget exhausted: the torsion has a prime factor "
                f"above the budget {budget}")
        if r % p == 0:
            powers = divisors
            while r % p == 0:
                r //= p
                powers = [d * p for d in powers]
                divisors += powers
        p += 1
    if r > 1:
        divisors += [d * r for d in divisors]
    divisors.sort()
    return divisors


def enumerate_corank_oracle(ambient: int, corank: int, torsion: int, *,
                            jobs: int = 1,
                            budget: Optional[int] = None) -> list[Lattice]:
    """Brute-force census of the multiplicative sublattices of Z^ambient of a
    given co-rank and torsion, sorted by basis, each once.

    The scan (`_corank_worker`) never consults the formula it is compared
    with. Its census is validated (`_lattices`) and re-verified (`_reverify`)
    on one lattice per label key (`lattice._column_labels`), as lattices with
    one key share rank, closure and torsion (`lattice._pivot_square`). jobs
    and budget are `_run_shards`'.
    """
    lats = _lattices(ambient, _census(ambient, corank, torsion, jobs=jobs,
                                      budget=budget))
    # keys keep the order of first use, so the first failing key is the
    # first failing lattice's
    _reverify({tuple(_column_labels(lat.basis, ambient)[0]): lat
               for lat in lats}.values(), ambient - corank, torsion)
    return lats


def _census(ambient: int, corank: int, torsion: int, *, jobs: int,
            budget: Optional[int]) -> list[tuple[tuple[int, ...], ...]]:
    """The sorted, repeat-free bases `enumerate_corank_oracle` validates
    and re-verifies, and `_verify` places; ValueError on a cell that breaks
    `_run_shards`' cell rule."""
    return _run_shards(ambient, corank, torsion, jobs, budget)


def _reverify(lats: Iterable[Lattice], rank: int, torsion: int) -> None:
    """Post-hoc check of either engine's output, independent of its own math:
    each lattice must have the given rank, be closed under products
    (`is_multiplicative`) and have the given torsion (`torsion_size`), tested
    in that order; the first failure raises RuntimeError.
    """
    for lat in lats:
        if len(lat.basis) != rank or not is_multiplicative(lat):
            raise RuntimeError("internal: engine produced a bad lattice")
        if torsion_size(lat) != torsion:
            raise RuntimeError("internal: engine produced a wrong torsion")


# ---------------------------------------------------------------------------
# the factorization under test


def count_corank_formula(n: int, k: int, r: int, *, jobs: int = 1,
                         budget: Optional[int] = None) -> int:
    """Closed-form count: stirling2(n+k+1, n+1) times the full-rank count,
    which runs under the given jobs and budget. The cell (n + k, k, r) is
    checked first against `_run_shards`' cell rule, as stirling2 would
    answer 0 at k < 0 and raise a message of its own at n < 0."""
    _check_cell(n + k, k, r)
    return stirling2(n + k + 1, n + 1) * count_full_rank(n, r, jobs=jobs,
                                                         budget=budget)


def decompose(lat: Lattice) -> tuple[AcceptableMap, Lattice]:
    """Split a multiplicative lattice into its ordered map g and full-rank
    core L, the unique pair with apply_map(g, L) == lat.

    L is lat's pivot square (`lattice._pivot_square`), and g labels each
    column of lat by its place among L's columns, 0 for the zero column; one
    pass over lat's columns gives both (`lattice._column_labels`). Raises
    ValueError on non-multiplicative input. lat's basis is validated, so
    rectangular, and g carries L back to lat (`_witness_faults` holds the
    argument).

    Both skip their constructors. L (`Lattice._trusted`): lat's basis is
    validated, so its square is upper triangular with lat's positive pivots
    on its diagonal and lat's reduced entries above them, all ints.
    g (`AcceptableMap._trusted`): its labels, 0..rank, each used and each
    first used after every smaller one, make it ordered and acceptable.
    """
    rank = len(lat.basis)
    labels, assignment = _column_labels(lat.basis, lat.ambient_dim)
    if len(labels) == rank + 1:
        core = Lattice._trusted(rank, tuple([row[1:] for row in zip(*labels)]))
        if _square_closed(core.basis):
            return AcceptableMap._trusted(tuple(assignment)), core
    raise ValueError("lattice is not multiplicative")


def _witness_faults(ambient: int,
                    witnesses: Iterable[tuple[tuple[int, ...], ...]],
                    cores: dict[tuple, list], rank: int, r: int
                    ) -> Iterator[Optional[str]]:
    """Why each witness basis of Z^ambient breaks the factorization, or
    None, in order.

    cores holds, under each full-rank lattice's key, the list of witness
    bases placed on it. A key is a label dict (`lattice._column_labels`) as
    a tuple: the zero column, as tall as the rows are many, then each
    distinct nonzero column in order of first use. A witness whose rows all
    have ambient entries and whose key is a core's is placed on that core,
    with no map or Lattice built. It is the core carried through its own
    labels, its ordered map's assignment (`partitions._transport_rows`): it
    has the core's row count, and each column's label names that column in
    the key. So it is a canonical basis (`partitions.apply_map`) with the
    core's rank, closure and torsion (`lattice._pivot_square`), which the
    full-rank census re-verified. The widths are checked because `zip`
    stops at the shortest row, so a longer row leaves the key unchanged.
    `decompose` rests on the same argument for its rectangular basis.
    Placement compares by value, as entries do: True or 1.0 equals 1. The
    constructor stays the only type check: `_verify` runs it on every
    lattice it returns, and the full-rank census, from the same scan, is
    validated basis by basis (`_lattices`). Any other witness, of the
    wrong width or row count included, is a stray, validated (`_lattices`)
    and re-verified (`_reverify`) on its own basis, which raise RuntimeError
    on an engine fault; it gives "censused but not reachable through any
    map".
    """
    for basis in witnesses:
        placed = (cores.get(tuple(_column_labels(basis, ambient)[0]))
                  if all(len(row) == ambient for row in basis) else None)
        if placed is None:
            _reverify(_lattices(ambient, [basis]), rank, r)
            yield "censused but not reachable through any map"
            continue
        placed.append(basis)
        yield None


def verify_corank_factorization(n: int, k: int, r: int,
                                bound_multiplier: int = 1, *, jobs: int = 1,
                                budget: Optional[int] = None) -> VerificationReport:
    """Pit the census of the cell (n, k, r) against stirling2(n+k+1, n+1) *
    count_full_rank(n, r) and check each witness: `_verify`'s report.
    bound_multiplier raises ValueError below 1 and is otherwise ignored, as
    no scan reaches a bound; the campaign benchmark still passes 1 and 2.
    """
    if bound_multiplier < 1:
        raise ValueError("bound_multiplier must be at least 1")
    return _verify(n, k, r, jobs=jobs, budget=budget)[0]


def _verify(n: int, k: int, r: int, *, jobs: int, budget: Optional[int]
            ) -> tuple[VerificationReport, Optional[tuple[Lattice, str]]]:
    """The cell's report, and on a failing cell its first offending lattice
    with a reason, or None.

    The census and the full-rank lattices are each taken once. The offender
    is the first witness `_witness_faults` faults, a stray included; the pass
    runs to its end, so an engine fault in any witness raises. A cell that
    fails with no such witness fails on its count: every witness is placed,
    and some full-rank lattices hold other than stirling2(n+k+1, n+1). Only
    those suspects are searched, their witnesses against their images under
    the ordered maps: the least lattice on one side only, else the first
    image reached twice. Any other lattice's witnesses are its images, each
    once. A witness becomes a Lattice, through the constructor (`_lattices`),
    only as a stray, the offender or a suspect's witness, so every lattice
    returned is validated.
    """
    ambient = n + k
    witnesses = _census(ambient, k, r, jobs=jobs, budget=budget)
    stirling_factor = stirling2(n + k + 1, n + 1)
    cores = enumerate_full_rank_multiplicative(n, r, jobs=jobs, budget=budget)
    keyed = {tuple(_column_labels(core.basis, n)[0]): [] for core in cores}
    formula_count = stirling_factor * len(cores)
    found = None
    for basis, fault in zip(witnesses, _witness_faults(ambient, witnesses,
                                                       keyed, n, r)):
        if fault is not None and found is None:
            found = _lattices(ambient, [basis])[0], fault
    passed = len(witnesses) == formula_count and found is None
    report = VerificationReport(
        n=n, k=k, r=r,
        oracle_count=len(witnesses),
        formula_count=formula_count,
        stirling_factor=stirling_factor,
        full_rank_count=len(cores),
        witnesses_checked=len(witnesses),
        status="pass" if passed else "fail",
    )
    if passed or found is not None:
        return report, found
    suspects = [(core, placed) for core, placed in zip(cores, keyed.values())
                if len(placed) != stirling_factor]
    rebuilt = [apply_map(g, core) for g in enumerate_ordered_maps(n, n + k)
               for core, _ in suspects]
    census = set(_lattices(ambient, [basis for _, placed in suspects
                                     for basis in placed]))
    differ = census.symmetric_difference(rebuilt)
    if differ:
        lat = min(differ, key=lambda l: (l.rank, l.basis))
        if lat in census:
            return report, (lat, "censused but not reachable through any map")
        return report, (lat, "reachable through a map but missed by the census")
    seen: set[Lattice] = set()
    for lat in rebuilt:
        if lat in seen:
            return report, (lat, "reached through two different map/core pairs")
        seen.add(lat)
    return report, None
