"""Exhaustive enumeration engines and the factorization verifier.

One worker, `_corank_worker`, lists the multiplicative sublattices of Z^m
of a given co-rank and torsion. It is a brute-force scan over the
canonical banded bases of `lattice.banded_basis`, one per lattice, whose
pivots divide the torsion, and it never consults the closed formula it is
later compared against. It builds each banded basis in the reversed column
frame and lists the lattices with their coordinates reversed, which is the
same census. At co-rank 0 the torsion is the index and the bases it builds
are the upper-triangular Hermite bases, from the last row up, so the same
worker is the full-rank engine (`enumerate_full_rank_multiplicative`).
The verifier pits the census at co-rank k against the Stirling factor
times the census at co-rank 0, cell by cell.

The worker grows a Hermite basis by one row closed under products at a
time (`_closed_extensions`), so a partial basis is dropped as soon as its
rows are not closed, and walks depth first, into each extension as it is
returned. A shard owns every jobs-th lead of the first level and builds
only the subtrees of its own leads, so no shard builds another's rows.
Each lead is a divisor of the torsion left over, taken from one list of
the torsion's divisors, the last lead being the quotient itself. The
recursive closures of the worker empty their own cells when they return,
so no reference cycle keeps a census alive: reference counting frees it.
`_run_shards` answers rank 0, runs the shards, sorts their bases and
rejects a repeat, and `_lattices` turns the bases of both engines into
validated Lattices. One `_reverify` checks either census through the
lattice predicates alone (`is_multiplicative`, `torsion_size`), once per
lattice at full rank and once per pivot square otherwise. The verifier
(`_verify`) takes each cell's census, as bases, and its full-rank lattices
once and makes one pass over the census (`_witness_faults`). One pass
over a witness's columns (`lattice._column_labels`) keys it to the
full-rank lattice that is its pivot square and gives its own map's
assignment, which must carry that lattice's rows back to it: that proves
the witness canonical with no map built and without the Lattice
constructor. Only a stray, a witness with no such lattice, is built and
re-verified, and it fails the cell; `decompose` reads its pair off the
same pass. A cell that fails on its count alone is searched on the
lattices already taken, and only on the full-rank lattices that hold other
than the Stirling factor of witnesses. Its outcome is a
VerificationReport, a NamedTuple as `cache.CountRecord` is.

Budgets: each shard counts its steps and aborts with SearchBudgetExceeded
once the per-shard budget is crossed, so an oversized request dies loudly
instead of truncating silently. A step is one lead, one entry tried in a
pivot column or one off-pivot column, whose entries are the exact roots of
a quadratic rather than a range scanned; co-rank 0 has no off-pivot
columns. A trial divisor of the torsion above the budget raises too.
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
    _transport_rows,
    apply_map,
    enumerate_ordered_maps,
    stirling2,
)

DEFAULT_BUDGET = 50_000_000


class SearchBudgetExceeded(RuntimeError):
    """Raised when an enumeration hits its per-worker candidate budget."""


class VerificationReport(NamedTuple):
    """Outcome of one verification cell.

    status is 'pass' exactly when the scan count equals the formula count and
    every scanned lattice survived the rigidity, decomposition and torsion
    checks.
    """

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


def _run_shards(ambient: int, corank: int, torsion: int, jobs: int,
                budget: Optional[int]) -> list[tuple[tuple[int, ...], ...]]:
    """Every shard's bases of the given co-rank and torsion, sorted: the
    census of both engines, the full-rank one at co-rank 0. The bases are
    the workers' own, whose rows each basis shares with the others that
    extend the same prefix; nothing copies them.

    jobs and budget are checked first, budget None meaning DEFAULT_BUDGET.
    At rank 0 (ambient == corank) the only lattice is the zero lattice, of
    torsion 1, so the answer is [()] when torsion is 1 and [] otherwise,
    and no worker runs. Otherwise jobs = 1 runs `_corank_worker` in this
    process and takes its result as the census, and more jobs run jobs
    shards, each with its own budget, in a fork pool of min(jobs,
    os.cpu_count()) processes, and join their results once; pickling keeps
    the shared rows shared within a shard. A shard owns leads: shard s
    builds the subtrees of the first-level leads s, s + jobs, ... and
    nothing else, so the shards' steps sum to the steps of jobs = 1, and no
    shard takes more steps than that total. The census is sorted in place.
    A basis found twice, in one shard or two, is an internal error: the
    worker builds every lattice once, and the sort puts copies next to each
    other, so comparing each basis with the next finds every repeat.
    """
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

    A basis the constructor rejects is an internal error: its ValueError,
    which the command line would report as a usage error (exit 2), is
    raised again as RuntimeError "internal: engine produced an invalid
    basis: ..." with the constructor's reason, a failed self-check (exit 3).
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
    """All full-rank multiplicative sublattices of Z^n with the given index.

    The co-rank scan at co-rank 0 (`_run_shards`), whose banded bases are
    the upper-triangular Hermite bases: a positive diagonal with product
    `index`, entries above a pivot reduced modulo that pivot. Bases are
    built from the last row up and dropped at the first row whose span with
    the rows below is not closed under coordinatewise products; the budget
    counts one step per lead or entry tried, as every column right of a
    lead is a pivot. jobs shards the last rows' leads round-robin. Each
    lattice appears exactly once, a repeat being an internal error; the
    result is sorted by basis. Each lattice is its own pivot square, so
    unlike the co-rank census it is re-verified (`_reverify`) lattice by
    lattice. Z^0 is the one lattice at n = 0, of index 1.
    """
    if n < 0:
        raise ValueError("ambient dimension must be nonnegative")
    if index < 1:
        raise ValueError("index must be at least 1")
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
    """Number of index-`index` subrings of Z^n containing (1, ..., 1).

    Membership of the ones vector is decided by exact division
    (`intlinalg._in_span`). For n = 0 the empty product convention makes
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

    The worker's one extension step, at every co-rank. hnf is a Hermite
    basis with pivots right of q, a prefix in the reversed frame, as a tuple
    of row tuples. The lead d runs over leads, an entry in a pivot column of
    hnf over [0, pivot), and every other entry over the integers, in
    lexicographic order, and the bases come back in that order. Each is the
    tuple (tuple(v), *hnf): it holds hnf's own row objects, so every basis
    that extends a prefix shares that prefix's rows. Rows are tuples and
    nothing writes into one, so sharing them is safe.
    The coefficient of v in v*v is d, so v*v lies in the span exactly when
    v*v - d*v reduces to zero against hnf. Its column j, less the multiples
    of the rows pivoting left of j, is fixed once x_q..x_j are, so a partial
    row is dropped at the first column whose residual is non-zero off a
    pivot or not divisible by the pivot on one. `acc` carries those
    multiples forward. Off a pivot the residual x(x - d) - acc[j] must
    vanish, so x runs over its roots (d - s)/2 <= (d + s)/2, s =
    isqrt(d*d + 4*acc[j]), when d*d + 4*acc[j] is a perfect square; then
    s = d mod 2, so both roots are integers. On a pivot column the residual
    is tested for divisibility before it is divided, and a residual of 0
    adds no multiple, so the entry passes `acc` on as it is; no `acc` is
    ever changed in place, so entries share one freely. A full row is kept
    when its products with the rows of hnf lie in the span too, so the span
    of (v, *hnf) is closed when hnf's is. Every row u of hnf pivots right
    of q, so u*v vanishes at column q and v's coefficient in it is 0: the
    product is tested against hnf alone (`_in_span`), and v becomes a row
    tuple only when it is kept. A row u = d*e_c of hnf, zero right of its
    pivot c, needs no test: u*v = v[c]*u lies in the span, so only the rows
    with a nonzero entry right of their pivot are listed, once per call.
    Every lead, every entry tried in a pivot column and every off-pivot
    column is charged one step to `steps`.
    """
    pivot_row: list[Optional[tuple[int, ...]]] = [None] * ambient
    for row, c in zip(hnf, pivots):
        pivot_row[c] = row
    tested = [row for row, c in zip(hnf, pivots) if any(row[c + 1:])]
    v = [0] * ambient
    out: list[tuple[tuple[int, ...], ...]] = []

    def fill(j: int, d: int, acc: list[int]) -> None:
        if j == ambient:
            for u in tested:
                if not _in_span(hnf, pivots, [a * b for a, b in zip(u, v)],
                                ambient):
                    return
            out.append((tuple(v), *hnf))
            return
        row = pivot_row[j]
        if row is None:
            steps.spend(1)
            disc = d * d + 4 * acc[j]
            s = isqrt(disc) if disc > 0 else 0
            if s * s == disc:
                for x in ((d - s) // 2, (d + s) // 2) if s else (d // 2,):
                    v[j] = x
                    fill(j + 1, d, acc)
            return
        p = row[j]
        steps.spend(p)
        aj = acc[j]
        for x in range(p):
            res = x * (x - d) - aj
            if res % p == 0:
                v[j] = x
                if res:
                    m = res // p
                    fill(j + 1, d, [a + m * b for a, b in zip(acc, row)])
                else:
                    fill(j + 1, d, acc)

    try:
        for d in leads:
            steps.spend(1)
            v[q] = d
            fill(q + 1, d, [0] * ambient)
    finally:
        # fill calls itself through its own closure cell; emptying the cell
        # breaks that cycle, so fill and its lists are freed at return
        del fill
    return out


def _corank_worker(args: tuple[int, int, int, int, int, int]
                   ) -> list[tuple[tuple[int, ...], ...]]:
    """One shard's share of the census, full-rank or not, as canonical
    Hermite bases of the reversed lattices.

    Rows are built in the reversed column frame, where a banded basis read
    newest row first is an ordinary Hermite basis: the row of level i has
    its lead at column q_i = ambient - 1 - p_i with q_0 > q_1 > ..., so the
    rows built so far span L cut down to a coordinate section and
    `_in_span` decides membership in that span by exact division. New rows
    come from `_closed_extensions`, starting from the empty prefix (), and
    the worker recurses into each as it is returned, depth first; each
    child's pivot list is built once per lead column q and shared by every
    child pivoting there. The shard owns leads: at the first level it tries
    every jobs-th lead from the shard-th on, at every lead column, and
    below them every lead, so it builds the subtrees of its own leads and
    no row of another shard's. A complete basis, newest row first, is the
    canonical Hermite basis of rev(L), L with its coordinates reversed, and
    is appended as built: each row is a tuple made once, so the bases that
    extend one prefix hold that prefix's row objects, not copies of them.

    Every prefix that `_closed_extensions` returns spans a multiplicative
    lattice, so it has a pivot square (`lattice._pivot_square`), and its
    torsion is its lead product. A prefix spans a coordinate section of
    L, a primitive sublattice of it, so that torsion divides the final
    torsion r. Level i therefore tries as leads only the divisors of the
    torsion left over, r over the lead product so far, and the last level
    tries that quotient alone, which completes r; no torsion is tested.
    The torsion left over divides r, so its divisors are read off one list
    of r's divisors, found once per worker from r's factorization
    (`_divisors`); at rank 1, whose only level is the last, it is not built.
    Off-pivot entries are the integer roots that `_closed_extensions` solves
    for, at one step per column, so nothing in the scan needs a bound. At
    co-rank 0 each level has one lead column, q_i = ambient - 1 - i, and
    every column right of it is a pivot, so the worker builds the
    upper-triangular Hermite bases of index r from the last row up: the
    full-rank census. The rank n = ambient - corank is at least 1:
    `_run_shards` answers rank 0 without a worker.
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

    Trial division divides each prime out of r as it finds it, multiplying
    the divisors found so far by each of its powers, and stops once the
    square of the next trial exceeds what is left, which is then 1 or a
    prime. So the cost is set by r's second-largest prime factor and the
    square root of its largest: small for a torsion made of small primes,
    whatever its size, and O(sqrt(p)) for one with a large prime factor p.

    A trial above the budget raises SearchBudgetExceeded; no trial is a
    step. The worker would raise anyway: what is left of r then has a prime
    factor p above the budget, a first-level lead. Its shard builds the row
    p*e_q (0 is a root of x(x - p) = 0), and a next-level row reaches
    column q through the root 0 of each off-pivot column before it, which
    carries nothing forward; q is a pivot column of pivot p, so its entries
    cost p steps, more than the budget.
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
    """Brute-force census of multiplicative sublattices by co-rank and torsion.

    Scans the (ambient-corank) x ambient matrices in the canonical banded
    form that `banded_basis` returns, one per lattice: row i ends in a
    positive pivot d_i at column p_i <= i + corank, with p_0 < p_1 < ...; a
    later row's entry in column p_i is reduced into [0, d_i); every other
    entry left of a pivot is an integer root of x(x - d) = c for the row's
    pivot d and a c fixed by the entries before it. Rows 0..i span the
    lattice cut down to its first p_i + 1 coordinates, a primitive
    sublattice of it, so a prefix is pruned as soon as it is not
    multiplicative. A multiplicative prefix has a pivot square, so its
    torsion d_0 * ... * d_i divides the target: d_i runs over the divisors
    of what is left, and the last pivot is that quotient (`_corank_worker`).

    The scan's rows are the canonical Hermite basis of rev(L), L with its
    coordinates reversed, and the census holds those lattices, so no
    Hermite form is computed. Each row is a tuple built once, and every
    basis that extends a prefix shares that prefix's rows. Reversal
    permutes coordinates, so it is a ring automorphism and its own inverse
    that keeps rank, torsion and closure under products: it maps the census
    bijectively onto itself, and the sorted rev(L) are the sorted census.
    A lattice found twice is an internal error. The census is re-verified
    (`_reverify`) on one lattice per pivot square, keyed by its label dict
    (`lattice._column_labels`), the zero column then the distinct nonzero
    columns in order of first use, as the verifier keys its witnesses:
    lattices with the same key are images of one square under injective,
    product-respecting coordinate copies (`lattice._pivot_square`), so they
    share rank, closure and torsion.

    No pivot or entry reaches a bound, so the scan takes none. The budget
    counts steps per worker, one per lead, per entry tried in a pivot
    column and per off-pivot column. jobs shards the first-level leads
    round-robin, and a shard owns its leads' subtrees: the shards' steps
    sum to those of jobs = 1.
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
    and re-verifies, and `_verify` places."""
    if ambient < 0 or not 0 <= corank <= ambient:
        raise ValueError("need 0 <= corank <= ambient")
    if torsion < 1:
        raise ValueError("torsion must be at least 1")
    return _run_shards(ambient, corank, torsion, jobs, budget)


def _reverify(lats: Iterable[Lattice], rank: int, torsion: int) -> None:
    """Post-hoc check of either engine's output, independent of its own math.

    Each lattice must have the given rank, be closed under products
    (`is_multiplicative`) and have the given torsion (`torsion_size`),
    tested in that order on its own basis; the first failure raises
    RuntimeError.
    """
    for lat in lats:
        if lat.rank != rank or not is_multiplicative(lat):
            raise RuntimeError("internal: engine produced a bad lattice")
        if torsion_size(lat) != torsion:
            raise RuntimeError("internal: engine produced a wrong torsion")


# ---------------------------------------------------------------------------
# the factorization under test


def count_corank_formula(n: int, k: int, r: int, *, jobs: int = 1,
                         budget: Optional[int] = None) -> int:
    """Closed-form count: stirling2(n+k+1, n+1) times the full-rank count,
    which runs under the given jobs and budget."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    return stirling2(n + k + 1, n + 1) * count_full_rank(n, r, jobs=jobs,
                                                         budget=budget)


def decompose(lat: Lattice) -> tuple[AcceptableMap, Lattice]:
    """Split a multiplicative lattice into an ordered map and a full-rank core.

    One pass over lat's columns (`lattice._column_labels`) gives everything:
    a multiplicative basis's distinct nonzero columns form its pivot square
    (`lattice._pivot_square`), the core L, and the ordered acceptable map g
    labels each column of lat by its position among them, 0 for the zero
    column, so g copies the square's columns to where they occur in lat,
    with apply_map(g, L) == lat, which is checked on rows: the label dict,
    read as rows, is L's rows padded with a leading 0, and g's assignment
    must carry them (`partitions._transport_rows`) to lat's basis. The pair
    is unique. Closure is tested on L, a full-rank basis and so its own
    pivot square (`_square_closed`); any other column count means no
    square, so no closure. Raises ValueError on non-multiplicative input.

    L is stored without the constructor (`Lattice._trusted`): lat's basis
    is a validated canonical one, so its pivot columns are distinct and
    nonzero, and when there are rank many distinct nonzero columns they
    are exactly those, in pivot order, as the columns left of a pivot are
    zero from that pivot's row down. L is then upper triangular with lat's
    positive pivots on its diagonal and the entries above them, already
    reduced, in its rows, all ints: the shape the constructor checks. g,
    its assignment alone, is stored without the constructor too
    (`AcceptableMap._trusted`): its labels, 0..rank each used and each
    first used after every smaller one, make it ordered and acceptable, so
    it carries L's canonical rows to canonical rows (`partitions.apply_map`).
    """
    labels, assignment = _column_labels(lat.basis, lat.ambient_dim)
    if len(labels) == lat.rank + 1:
        padded = list(zip(*labels))
        core = Lattice._trusted(lat.rank, tuple([row[1:] for row in padded]))
        if _square_closed(core.basis):
            if _transport_rows(assignment, padded) != lat.basis:
                raise RuntimeError(
                    "internal: decomposition does not reproduce the lattice")
            return AcceptableMap._trusted(tuple(assignment)), core
    raise ValueError("lattice is not multiplicative")


def _witness_faults(ambient: int,
                    witnesses: Iterable[tuple[tuple[int, ...], ...]],
                    cores: dict[tuple, tuple[list, list]],
                    rank: int, r: int) -> Iterator[Optional[str]]:
    """Why each witness basis of Z^ambient breaks the factorization, or
    None, in order.

    cores holds, under each full-rank lattice's key, the lattice's rows each
    padded with a leading 0 and a list of the witness bases placed on it. A
    key is a basis's label dict (`lattice._column_labels`) as a tuple: its
    zero column, one entry per row, then its distinct nonzero columns in
    order of first use. A witness of ambient columns with a core's key has
    rank rows and the core's labels, so it must be that core carried
    through its own column labels, the assignment of its own ordered map
    (`partitions._transport_rows`), which raises if it is not; it then
    equals a canonical Hermite basis with that core as its square, so the
    same rank, closure verdict and torsion, which the full-rank census
    re-verified, and it joins the core's list with no map or Lattice built.
    Equal as a value: an entry True or 1.0 compares equal to 1, and only
    the constructor, which `_verify` runs on every witness it returns,
    refuses it. Any other witness is a stray: it is validated (`_lattices`)
    and re-verified on its own basis (`_reverify`), which raise
    RuntimeError on an invalid basis, the wrong rank, a lattice not closed
    under products, one with no pivot square among them, or the wrong
    torsion; it then gives "censused but not reachable through any map".
    """
    for basis in witnesses:
        labels, assignment = _column_labels(basis, ambient)
        known = (cores.get(tuple(labels)) if len(assignment) == ambient
                 else None)
        if known is None:
            _reverify(_lattices(ambient, [basis]), rank, r)
            yield "censused but not reachable through any map"
            continue
        padded, placed = known
        if _transport_rows(assignment, padded) != basis:
            raise RuntimeError(
                "internal: decomposition does not reproduce the lattice")
        placed.append(basis)
        yield None


def verify_corank_factorization(n: int, k: int, r: int,
                                bound_multiplier: int = 1, *, jobs: int = 1,
                                budget: Optional[int] = None) -> VerificationReport:
    """Pit the staircase census against the Stirling-factor formula.

    Checks, for the cell (n, k, r): the census count equals
    stirling2(n+k+1, n+1) * count_full_rank(n, r); every censused lattice has
    rigid columns; decomposing and re-applying reproduces it; and its torsion
    equals the index of its core, both being its pivot square's diagonal
    product. The cell takes one census and one full-rank census (`_verify`).
    One pass over the census (`_witness_faults`) places each witness on the
    full-rank lattice that is its pivot square, whose rank, closure and
    torsion its census re-verified (`_reverify`); each witness's own map is
    still read off its columns and re-applied to that lattice, which
    proves the witness canonical. A witness with no such lattice is
    validated and re-verified on its own and fails the cell. The census is
    taken as bases, without the oracle's own validation and re-verification,
    which would repeat that. When the factorization holds each full-rank
    lattice of index r has stirling2(n+k+1, n+1) witnesses.

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

    The census, sorted bases with no repeat, and the full-rank lattices are
    each taken once. The offender is the first witness that
    `_witness_faults` faults, a stray included; the pass runs to its end,
    so an engine fault in any witness raises. A cell that fails with no
    such witness fails on its count, with every witness placed on a
    full-rank lattice, and some lattice holds other than stirling2(n+k+1,
    n+1) of them. Only those suspect lattices are searched: their witnesses
    are compared with their images under the ordered maps, the least
    lattice on one side only, else the first image reached twice. Any other
    lattice's witnesses are its images, each once, so it adds nothing to
    either side. A witness becomes a Lattice, through the constructor
    (`_lattices`), only as a stray, the offender or a suspect's witness, so
    every lattice this returns is validated.
    """
    ambient = n + k
    witnesses = _census(ambient, k, r, jobs=jobs, budget=budget)
    stirling_factor = stirling2(n + k + 1, n + 1)
    cores = enumerate_full_rank_multiplicative(n, r, jobs=jobs, budget=budget)
    labelled = [_column_labels(core.basis, n)[0] for core in cores]
    keyed = {tuple(labels): (list(zip(*labels)), []) for labels in labelled}
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
    suspects = [(core, placed) for core, (_, placed)
                in zip(cores, keyed.values()) if len(placed) != stirling_factor]
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
