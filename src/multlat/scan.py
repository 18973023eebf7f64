"""The brute-force scan behind both censuses.

`_corank_worker`, with its one extension step `_closed_extensions`, builds
the co-rank census and, at co-rank 0, the full-rank one; `_run_shards`
builds the first level and runs the worker once per first-level row, in
process or in a fork pool, under a step budget. The scan is one side of the
factorization check, so it never consults the other: this module imports
the standard library alone, nothing from the package.
"""

from __future__ import annotations

import os
from itertools import islice
from math import isqrt
from operator import gt, itemgetter
from typing import Iterable, Optional

DEFAULT_BUDGET = 50_000_000
# the census order's key: a basis's rows read oldest first (`_corank_worker`)
_key = itemgetter(slice(None, None, -1))


class SearchBudgetExceeded(RuntimeError):
    """Raised when an enumeration hits its step budget."""


class _Steps:
    """One budget's count of entries tried, checked against its budget."""

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
    """The census of both engines, as bases: the full-rank census at
    co-rank 0 and the co-rank one otherwise, of the given torsion,
    ascending by rows read last first (`_key`).

    The cell rule, 0 <= corank <= ambient and torsion >= 1, is checked here
    first for every census (`_check_cell`), then jobs and budget, budget
    None meaning DEFAULT_BUDGET. Rank 0 (ambient == corank) starts no
    worker: the zero lattice has torsion 1, so it gives [()] at torsion 1
    and [] otherwise.

    The first level runs here: for q ascending, `_closed_extensions` of the
    empty prefix over the torsion's divisors, or the torsion alone at rank
    1, each call's rows taken in reverse, the walk's own order
    (`_corank_worker`). At rank 1 these rows are the census. Above it each
    row is one task, whose subtree `_corank_worker` walks, and the census
    is the tasks' lists joined in task order. At jobs = 1, or with one
    task, the tasks run here one after another; otherwise they go in order
    to a fork pool of min(jobs, os.cpu_count(), tasks) processes, so jobs
    counts processes. At jobs = 1 one `_Steps` counts the first level and
    every task, the steps of one walk. At jobs > 1 the first level and each
    task have a budget of their own and take a share of those steps, so a
    run that completes at jobs = 1 completes at every jobs with the same
    census, and one that a budget stops may complete at more.

    Each task lists its bases strictly descending by key, and the tasks'
    first rows, read first in the key, descend in task order
    (`_corank_worker`), so the joined list's neighbours strictly descend;
    one pass over them finds any basis found twice, in one task or two, or
    out of order, an internal error ("lattice twice" when a basis repeats,
    "out of order" otherwise). The list is then reversed in place.
    """
    _check_cell(ambient, corank, torsion)
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    budget = DEFAULT_BUDGET if budget is None else budget
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if ambient == corank:
        return [()] if torsion == 1 else []
    n = ambient - corank
    steps = _Steps(budget)
    leads = _divisors(torsion, budget) if n > 1 else [torsion]
    firsts = [(h, q) for q in range(n - 1, ambient) for h in reversed(
        _closed_extensions((), [], q, leads, ambient, steps))]
    tasks = [(n, h, q, torsion // h[0][q], leads,
              steps if jobs == 1 else _Steps(budget))
             for h, q in firsts] if n > 1 else []
    found = map(_corank_worker, tasks) if n > 1 else [[h for h, _ in firsts]]
    if jobs > 1 and len(tasks) > 1:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(min(jobs, os.cpu_count() or 1, len(tasks))) as pool:
            found = list(pool.imap(_corank_worker, tasks))
    bases = [h for task_bases in found for h in task_bases]
    if not all(map(gt, map(_key, bases), map(_key, islice(bases, 1, None)))):
        if len(set(bases)) < len(bases):
            raise RuntimeError("internal: engine produced a lattice twice")
        raise RuntimeError("internal: engine produced the census out of order")
    bases.reverse()
    return bases


# ---------------------------------------------------------------------------
# the scan: canonical banded bases, pivots dividing the torsion


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
    where a product fails, and a full row gives a closed span, listed where
    its last entry is set, the lead's when q is the last column. Off a pivot
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
                        if j + 1 == ambient:
                            out.append((tuple(v), *hnf))
                        else:
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
                if j + 1 == ambient:
                    out.append((tuple(v), *hnf))
                    continue
                m = res // p
                fill(j + 1, d, [a + m * b for a, b in zip(acc, row)]
                     if m else acc, moved)

    zero = [0] * ambient
    zeros = [zero] * len(tested)
    try:
        for d in leads:
            steps.spend(1)
            v[q] = d
            if q + 1 == ambient:
                out.append((tuple(v), *hnf))
            else:
                fill(q + 1, d, zero, zeros)
    finally:
        # fill calls itself through its own closure cell; emptying the cell
        # breaks that cycle, so fill and its lists are freed at return
        del fill
    return out


def _corank_worker(task: tuple[int, tuple[tuple[int, ...], ...], int, int,
                                list[int], _Steps]
                   ) -> list[tuple[tuple[int, ...], ...]]:
    """One first-level row's share of the census, the full-rank one at
    co-rank 0 and the co-rank one otherwise, as canonical Hermite bases of
    the reversed lattices: the bases whose oldest row is the task's.

    The task is (n, first, q, left, divisors, steps): the rank n >= 2, the
    first level's one-row basis, the column q it leads at, the torsion left
    over, the torsion's divisors and the `_Steps` to charge.

    Rows are built in the reversed column frame, where a banded basis
    (`lattice.banded_basis`) read newest row first is a Hermite basis: the
    row of level i, whose banded pivot is at column p_i, leads at column
    ambient - 1 - p_i, so the rows so far span L cut down to a coordinate
    section, where `_closed_extensions` decides membership by exact
    division. A complete basis is the canonical Hermite basis of rev(L), L
    with its coordinates reversed. Reversal permutes coordinates, so it is a
    ring automorphism, its own inverse, that keeps rank, torsion and
    closure: it maps the census onto itself, so the rev(L) are the census,
    with no Hermite form computed.

    Rows come from `_closed_extensions`, from the empty prefix, depth first:
    `_run_shards` builds the first level, the worker one row's subtree.
    Each row is a tuple made once, so the bases that extend a prefix share
    its row objects. A closed prefix has a pivot square
    (`lattice._pivot_square`), so its torsion is its lead product, and it
    spans a primitive sublattice of L, so that torsion divides r. Each level
    thus tries as leads only the divisors of the torsion left over, from one
    list (`_divisors`, not built at rank 1), and the last level that quotient
    alone: no torsion is tested and nothing needs a bound. At co-rank 0 every
    column right of a lead is a pivot, so the walk builds the
    upper-triangular Hermite bases of index r, the full-rank census.

    The walk lists its bases strictly descending by their rows read oldest
    first, basis[::-1] (`_key`). Take two bases and the oldest row where
    they differ: below it they share a prefix, so that row comes from one
    level of the walk. A row that leads at a smaller q has fewer leading zeros
    before a positive lead, so it is lexicographically larger, and q
    ascends. Rows of one q come from one `_closed_extensions` call, distinct
    and ascending, and are taken in reverse. The walk is depth first, so
    every basis below the larger row is listed before any below the
    smaller. Walking q down and taking each call's rows as they come would
    give the ascending order, but would list the shallow lattices first;
    with q ascending the first row is built deepest first, so a request
    deeper than the recursion limit meets it before the walk lists
    anything.
    """
    n, first, q, left, divisors, steps = task
    ambient = len(first[0])
    found: list[tuple[tuple[int, ...], ...]] = []

    def extend(hnf: tuple[tuple[int, ...], ...], pivots: list[int],
               left: int) -> None:
        # banded row len(hnf) ends on a column p <= len(hnf) + corank
        last = len(hnf) == n - 1
        leads = [left] if last else [d for d in divisors if left % d == 0]
        for q in range(n - 1 - len(hnf), pivots[0]):
            for h2 in reversed(_closed_extensions(hnf, pivots, q, leads,
                                                  ambient, steps)):
                if last:
                    found.append(h2)
                else:
                    extend(h2, [q] + pivots, left // h2[0][q])

    try:
        extend(first, [q], left)
    finally:
        # as in `_closed_extensions`: no cycle keeps extend, or the census
        # through found, alive past return
        del extend
    return found


def _divisors(r: int, budget: int) -> list[int]:
    """The divisors of r >= 1, ascending, for a census of rank >= 2.

    Trial division divides each prime out of r as it finds it and stops once
    the square of the next trial exceeds what is left, which is then 1 or a
    prime, so a torsion of small primes costs little whatever its size.
    A trial above the budget raises SearchBudgetExceeded; no trial is a
    step. The scan would raise anyway: what is left of r then has a prime
    factor p above the budget, a first-level lead. The first level builds
    p*e_q, and a next-level row of its task reaches column q through the
    root 0 of each off-pivot column before it, which carries nothing
    forward; q is a pivot column of pivot p, so its entries cost p steps,
    more than the budget.
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
