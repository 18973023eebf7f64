"""Exhaustive enumeration engines and the factorization verifier.

Two independent routes are implemented for counting multiplicative
sublattices. The full-rank route builds upper-triangular Hermite bases with a
prescribed determinant from the last row up, dropping a partial basis as
soon as its rows are not closed under products. The co-rank route is a
brute-force scan over the canonical banded bases of `lattice.banded_basis`,
one per lattice, whose pivots divide the torsion; it never consults the
closed formula it is later compared against. It builds each banded basis
in the reversed column frame and lists the lattices with their coordinates
reversed, which is the same census. The verifier pits the two routes
against each other cell by cell.

One step, `_closed_extensions`, grows a Hermite basis by one row closed
under products for both engines; a shard takes its share of the top level's
extensions by slicing their list. Both engines take each lead from the
divisors of the index or torsion left over, the last lead being the
quotient itself, and one `_reverify` checks the output of either; the
verifier re-verifies and splits each witness from one pivot square.

Budgets: each worker counts its steps and aborts with SearchBudgetExceeded
once the per-worker budget is crossed, so an oversized request dies loudly
instead of truncating silently. Both engines count one step per lead, one
per entry they try in a pivot column, and one per off-pivot column, whose
entries are the exact roots of a quadratic rather than a range scanned.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import isqrt, prod
from typing import Iterable, Optional, Sequence

from .intlinalg import _pivot_square
from .lattice import (
    Lattice,
    _square_closed,
    is_multiplicative,
    torsion_size,
)
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


@dataclass(frozen=True)
class VerificationReport:
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
        return asdict(self)


# ---------------------------------------------------------------------------
# shared low-level helpers (hot path: plain lists, no object churn)


def _in_span(hnf: list[list[int]], pivots: list[int], p: list[int],
             ambient: int) -> bool:
    """Membership of p in the row span of a Hermite basis, by exact division."""
    w = p[:]
    for idx, c in enumerate(pivots):
        wc = w[c]
        if wc:
            row = hnf[idx]
            d = row[c]
            if wc % d:
                return False
            q = wc // d
            for j in range(c, ambient):
                w[j] -= q * row[j]
    for x in w:
        if x:
            return False
    return True


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


def _run_shards(worker, args: tuple, jobs: int,
                budget: Optional[int]) -> list:
    """Every shard's results, joined in shard order.

    worker takes args + (shard, jobs, budget) and returns a list. jobs = 1
    runs it in this process, more jobs run one shard each in a fork pool;
    budget None means DEFAULT_BUDGET.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    budget = DEFAULT_BUDGET if budget is None else budget
    if budget < 1:
        raise ValueError("budget must be at least 1")
    tasks = [(*args, shard, jobs, budget) for shard in range(jobs)]
    if jobs == 1:
        shard_results = [worker(tasks[0])]
    else:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(jobs) as pool:
            shard_results = pool.map(worker, tasks)
    return [item for chunk in shard_results for item in chunk]


# ---------------------------------------------------------------------------
# full-rank enumeration: upper-triangular Hermite bases with fixed determinant


def _full_rank_worker(args: tuple[int, int, int, int, int]) -> list[tuple[tuple[int, ...], ...]]:
    """One shard's share of the full-rank census, as Hermite bases.

    Bases are built bottom-up. Rows i..n-1 of an upper-triangular Hermite
    basis of L span L cut down to the coordinates i..n-1, which is
    multiplicative whenever L is, so a suffix that is not closed is dropped
    with every basis above it. The row of level i is v = 0^i, d, x_(i+1),
    ..., x_(n-1) with d dividing the index left over (equal to it at i = 0)
    and x_j in [0, d_j). Every column right of i is a pivot of the suffix,
    so `_closed_extensions`, the step the co-rank scan takes too, never
    meets an off-pivot column. The shard takes every jobs-th last row from
    the shard-th on. Every pivot and every entry tried costs one step.
    """
    n, index, shard, jobs, budget = args
    found: list[tuple[tuple[int, ...], ...]] = []
    steps = _Steps(budget)

    def extend(i: int, left: int, hnf: list[list[int]], start: int = 0,
               step: int = 1) -> None:
        # hnf holds rows i+1..n-1, rows 0..i take the index left over; the
        # level takes every step-th extension from the start-th on
        if i < 0:
            found.append(tuple(tuple(r) for r in hnf))
            return
        leads = ([left] if i == 0 else
                 [d for d in range(1, left + 1) if left % d == 0])
        rows = _closed_extensions(hnf, list(range(i + 1, n)), i, leads, n,
                                  steps)
        for h2 in rows[start::step]:
            extend(i - 1, left // h2[0][i], h2)

    extend(n - 1, index, [], shard, jobs)
    return found


def enumerate_full_rank_multiplicative(n: int, index: int, *, jobs: int = 1,
                                       budget: Optional[int] = None) -> list[Lattice]:
    """All full-rank multiplicative sublattices of Z^n with the given index.

    Iterates upper-triangular Hermite bases (positive diagonal with product
    `index`, entries above a pivot reduced modulo that pivot), keeping the
    ones closed under coordinatewise products. Bases are built from the
    last row up and dropped at the first row whose span with the rows below
    is not closed; the budget counts one step per pivot or entry tried.
    jobs shards the last rows round-robin. Each lattice appears exactly
    once; the result is sorted by basis.
    """
    if n < 1:
        raise ValueError("ambient dimension must be at least 1")
    if index < 1:
        raise ValueError("index must be at least 1")
    bases = sorted(_run_shards(_full_rank_worker, (n, index), jobs, budget))
    lats = [Lattice(n, b) for b in bases]
    _reverify(lats, n, index)
    return lats


def count_full_rank(n: int, index: int, *, jobs: int = 1,
                    budget: Optional[int] = None) -> int:
    """Number of full-rank multiplicative sublattices of Z^n of given index.

    The n = 0 convention: exactly one such lattice for index 1, none else.
    """
    if n == 0:
        if index < 1:
            raise ValueError("index must be at least 1")
        return 1 if index == 1 else 0
    return len(enumerate_full_rank_multiplicative(n, index, jobs=jobs, budget=budget))


def count_unital(n: int, index: int, *, jobs: int = 1,
                 budget: Optional[int] = None) -> int:
    """Number of index-`index` subrings of Z^n containing (1, ..., 1).

    For n = 0 the empty product convention makes Z^0 itself the single
    subring, of index 1.
    """
    if n == 0:
        return count_full_rank(0, index)
    ones = [1] * n
    # a full-rank Hermite basis pivots on the diagonal
    pivots = list(range(n))
    lats = enumerate_full_rank_multiplicative(n, index, jobs=jobs, budget=budget)
    count = 0
    for lat in lats:
        if _in_span([list(r) for r in lat.basis], pivots, ones, n):
            count += 1
    return count


# ---------------------------------------------------------------------------
# co-rank oracle: canonical banded bases, pivots dividing the torsion


def _closed_extensions(hnf: list[list[int]], pivots: list[int], q: int,
                       leads: Iterable[int], ambient: int,
                       steps: _Steps) -> list[list[list[int]]]:
    """The bases [v] + hnf, v = 0^q, d, x_(q+1), ..., closed under products.

    The one extension step of both engines. hnf is a Hermite basis with
    pivots right of q (the full-rank suffix, or a scan prefix in the
    reversed frame). The lead d runs over leads, an entry in a pivot column
    of hnf over [0, pivot), and every other entry over the integers, in
    lexicographic order, and the bases come back as a list in that order.
    The coefficient of v in v*v is d, so v*v lies in the span exactly when
    v*v - d*v reduces to zero against hnf. Its column j, less the multiples
    of the rows pivoting left of j, is fixed once x_q..x_j are, so a partial
    row is dropped at the first column whose residual is non-zero off a
    pivot or not divisible by the pivot on one. `acc` carries those
    multiples forward. Off a pivot the residual x(x - d) - acc[j] must
    vanish, so x runs over its roots (d - s)/2 <= (d + s)/2, s =
    isqrt(d*d + 4*acc[j]), when d*d + 4*acc[j] is a perfect square; then
    s = d mod 2, so both roots are integers. A full row is kept when its
    products with the rows of hnf lie in the span too (`_in_span`), so the
    span of [v] + hnf is closed when hnf's is. Every lead, every entry tried
    in a pivot column and every off-pivot column is charged one step to
    `steps`.
    """
    pivot_row: list[Optional[list[int]]] = [None] * ambient
    for row, c in zip(hnf, pivots):
        pivot_row[c] = row
    p2 = [q] + pivots
    v = [0] * ambient
    out: list[list[list[int]]] = []

    def fill(j: int, d: int, acc: list[int]) -> None:
        if j == ambient:
            h2 = [v[:]] + hnf
            if all(_in_span(h2, p2, [a * b for a, b in zip(u, v)], ambient)
                   for u in hnf):
                out.append(h2)
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
        for x in range(p):
            m, rem = divmod(x * (x - d) - acc[j], p)
            if rem == 0:
                v[j] = x
                fill(j + 1, d, [a + m * b for a, b in zip(acc, row)])

    for d in leads:
        steps.spend(1)
        v[q] = d
        fill(q + 1, d, [0] * ambient)
    return out


def _corank_worker(args: tuple[int, int, int, int, int, int]
                   ) -> list[tuple[tuple[int, ...], ...]]:
    """One shard's share of the census, as canonical Hermite bases of the
    reversed lattices.

    Rows are built in the reversed column frame, where a banded basis read
    newest row first is an ordinary Hermite basis: the row of level i has
    its lead at column q_i = ambient - 1 - p_i with q_0 > q_1 > ..., so the
    rows built so far span L cut down to a coordinate section and
    `_in_span` decides membership in that span by exact division. New rows
    come from `_closed_extensions`, the step the full-rank engine takes too;
    the shard takes every jobs-th first row from the shard-th on. A complete
    basis, newest row first, is the canonical Hermite basis of rev(L), L
    with its coordinates reversed, and is returned as built.

    Every prefix that `_closed_extensions` returns spans a multiplicative
    lattice, so its Q-span is a subalgebra of Q^m. That subalgebra has no
    nilpotents, so it is spanned by orthogonal idempotents, which are 0/1
    vectors: it is fixed by a partition of the coordinates that are not
    identically zero, as the vectors constant on each block and zero off
    them. Each row lies in it, so the prefix has exactly rank-many distinct
    nonzero columns, hence a pivot square (`intlinalg._pivot_square`), and
    its torsion is its lead product. A prefix spans a coordinate section of
    L, a primitive sublattice of it, so that torsion divides the final
    torsion r. Level i therefore tries as leads only the divisors of the
    torsion left over, r over the lead product so far, and the last level
    tries that quotient alone, which completes r; no torsion is tested.
    Off-pivot entries are the integer roots that `_closed_extensions` solves
    for, at one step per column, so nothing in the scan needs a bound. At
    co-rank 0 the scan takes the full-rank engine's leads and steps.
    """
    ambient, corank, torsion, shard, jobs, budget = args
    n = ambient - corank
    if n == 0:
        # the zero lattice, of torsion 1
        return [()] if torsion == 1 else []
    found: list[tuple[tuple[int, ...], ...]] = []
    steps = _Steps(budget)

    def extend(hnf: list[list[int]], pivots: list[int], left: int,
               start: int = 0, step: int = 1) -> None:
        # the level takes every step-th extension from the start-th on;
        # banded row len(hnf) ends on a column p <= len(hnf) + corank
        last = len(hnf) == n - 1
        leads = ([left] if last else
                 [d for d in range(1, left + 1) if left % d == 0])
        rows = [(h2, q)
                for q in range(n - 1 - len(hnf), pivots[0] if hnf else ambient)
                for h2 in _closed_extensions(hnf, pivots, q, leads, ambient,
                                             steps)]
        for h2, q in rows[start::step]:
            if last:
                found.append(tuple(tuple(row) for row in h2))
            else:
                extend(h2, [q] + pivots, left // h2[0][q])

    extend([], [], torsion, shard, jobs)
    return found


def enumerate_corank_oracle(ambient: int, corank: int, torsion: int,
                            bound_multiplier: int = 1, *, jobs: int = 1,
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
    coordinates reversed, and the census lists those lattices, so no
    Hermite form is computed. Reversal permutes coordinates, so it is a ring
    automorphism and its own inverse that keeps rank, torsion and closure
    under products: it maps the census bijectively onto itself, and the
    sorted rev(L) are the sorted census. A lattice found twice is an
    internal error, and every lattice is re-verified (`_reverify`).

    bound_multiplier is validated and otherwise unused: no pivot or entry
    reaches a bound. It stays a parameter here and in the verifier only for
    callers that pass one, the campaign benchmark (`perfbench/worker.py`,
    bounds 1 and 2) among them; the command line and the count cache take
    none. The budget counts steps per worker, one per lead, per entry tried
    in a pivot column and per off-pivot column. jobs shards the first rows
    whose square closes, round-robin.
    """
    lats = _census(ambient, corank, torsion, bound_multiplier, jobs=jobs,
                   budget=budget)
    _reverify(lats, ambient - corank, torsion)
    return lats


def _census(ambient: int, corank: int, torsion: int, bound_multiplier: int,
            *, jobs: int, budget: Optional[int]) -> list[Lattice]:
    """`enumerate_corank_oracle` without its re-verification."""
    if ambient < 0 or not 0 <= corank <= ambient:
        raise ValueError("need 0 <= corank <= ambient")
    if torsion < 1:
        raise ValueError("torsion must be at least 1")
    if bound_multiplier < 1:
        raise ValueError("bound_multiplier must be at least 1")
    # rank 0 has nothing to shard: it runs in-process (bad jobs still fail)
    bases = sorted(_run_shards(_corank_worker, (ambient, corank, torsion),
                               jobs if ambient > corank else min(jobs, 1),
                               budget))
    if len(set(bases)) != len(bases):
        raise RuntimeError("internal: scan produced a lattice twice")
    return [Lattice(ambient, b) for b in bases]


def _reverify(lats: list[Lattice], rank: int, torsion: int) -> None:
    """Post-hoc check of either engine's output, independent of its own math:
    each lattice has the given rank and torsion and is multiplicative."""
    for lat in lats:
        _checked_square(lat, rank, torsion)


def _checked_square(lat: Lattice, rank: int, torsion: int
                    ) -> Optional[Sequence[Sequence[int]]]:
    """An engine's lattice re-verified: its pivot square, or None.

    The square, built once from lat's own basis and never from the engine's
    data, shows the rank, closure (`_square_closed`) and torsion (its
    diagonal product). A basis without one goes through `is_multiplicative`
    and `torsion_size` and gives None. A failed check raises RuntimeError.
    """
    if lat.rank != rank:
        raise RuntimeError("internal: engine produced a bad lattice")
    square = _pivot_square(lat.basis)
    if square is None:
        if not is_multiplicative(lat):
            raise RuntimeError("internal: engine produced a bad lattice")
        if torsion_size(lat) != torsion:
            raise RuntimeError("internal: engine produced a wrong torsion")
        return None
    if not _square_closed(square):
        raise RuntimeError("internal: engine produced a bad lattice")
    if prod(row[i] for i, row in enumerate(square)) != torsion:
        raise RuntimeError("internal: engine produced a wrong torsion")
    return square


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

    The canonical basis of a multiplicative lattice has exactly rank-many
    distinct nonzero columns, so it has a pivot square
    (`intlinalg._pivot_square`); `_split` turns that square into the pair.
    The core L is the square, and the ordered acceptable map g copies the
    square's columns to where they occur in lat, with apply_map(g, L) ==
    lat. The pair is unique. g is injective on L and respects products, so
    closure is tested on L. Raises ValueError on non-multiplicative input.
    """
    square = _pivot_square(lat.basis)
    if square is None:
        if is_multiplicative(lat):
            raise RuntimeError("internal: column count contradicts the rank")
    elif _square_closed(square):
        return _split(lat, square)
    raise ValueError("lattice is not multiplicative")


def _split(lat: Lattice, square: Sequence[Sequence[int]]
           ) -> tuple[AcceptableMap, Lattice]:
    """The ordered map and full-rank core of a basis, given its pivot square
    (`intlinalg._pivot_square`).

    The core is the square, a canonical Hermite basis in its own right: its
    entries are lat's entries at the pivot columns. The map labels each
    column of lat by its position among the square's columns, 1, 2, ..., and
    the zero column by 0. The re-application is checked on rows: the core
    rows carried through the map must be lat's basis. Both are canonical
    Hermite bases, so this is the same test as apply_map(g, core) == lat
    without building a third lattice.
    """
    rank, ambient = lat.rank, lat.ambient_dim
    position = {col: i for i, col in enumerate(zip(*square), 1)}
    position[(0,) * rank] = 0
    # zip yields no columns at all for the zero lattice: its columns are ()
    columns = zip(*lat.basis) if rank else [()] * ambient
    g = AcceptableMap(rank, ambient, tuple([position[col] for col in columns]))
    core = Lattice(rank, tuple(square))
    if _transport_rows(g, core.basis) != lat.basis:
        raise RuntimeError("internal: decomposition does not reproduce the lattice")
    return g, core


def reconstruct_from_factorization(n: int, k: int, r: int, *, jobs: int = 1,
                                   budget: Optional[int] = None) -> list[Lattice]:
    """Images of every full-rank index-r lattice under every ordered map.

    Returns the flat list (duplicates included, deterministic order); when
    the factorization holds this list matches the co-rank census exactly.
    """
    if n == 0:
        cores = [Lattice(0, ())] if r == 1 else []
    else:
        cores = enumerate_full_rank_multiplicative(n, r, jobs=jobs, budget=budget)
    out: list[Lattice] = []
    for g in enumerate_ordered_maps(n, n + k):
        for core in cores:
            out.append(apply_map(g, core))
    return out


def _check_witness(lat: Lattice, rank: int, r: int) -> Optional[str]:
    """Why a census witness breaks the factorization, or None.

    `_checked_square` re-verifies lat and hands its square to `_split`,
    which raises unless the pair re-applies to lat. lat must have a pivot
    square (rigid columns). The core is that square, a full-rank Hermite
    basis whose index is its diagonal product, which `_checked_square` has
    just compared with r, so the core's index is r.
    """
    square = _checked_square(lat, rank, r)
    if square is None:
        return "column count differs from rank"
    _split(lat, square)
    return None


def verify_corank_factorization(n: int, k: int, r: int,
                                bound_multiplier: int = 1, *, jobs: int = 1,
                                budget: Optional[int] = None) -> VerificationReport:
    """Pit the staircase census against the Stirling-factor formula.

    Checks, for the cell (n, k, r): the census count equals
    stirling2(n+k+1, n+1) * count_full_rank(n, r); every censused lattice has
    rigid columns; decomposing and re-applying reproduces it; and its torsion
    equals the index of its core, both being its pivot square's diagonal
    product. `_check_witness` re-verifies and splits each witness in one
    pass.
    """
    witnesses = _census(n + k, k, r, bound_multiplier, jobs=jobs,
                        budget=budget)
    stirling_factor = stirling2(n + k + 1, n + 1)
    full_rank_count = count_full_rank(n, r, jobs=jobs, budget=budget)
    formula_count = stirling_factor * full_rank_count
    faults = sum(_check_witness(lat, n, r) is not None for lat in witnesses)
    return VerificationReport(
        n=n, k=k, r=r,
        oracle_count=len(witnesses),
        formula_count=formula_count,
        stirling_factor=stirling_factor,
        full_rank_count=full_rank_count,
        witnesses_checked=len(witnesses),
        status=("pass" if len(witnesses) == formula_count and not faults
                else "fail"),
    )


def find_counterexample(n: int, k: int, r: int, bound_multiplier: int = 1, *,
                        jobs: int = 1, budget: Optional[int] = None
                        ) -> Optional[tuple[Lattice, str]]:
    """First offending lattice of a failing cell, with a reason; None if clean.

    Used by the command line to print something concrete when a verification
    cell fails: either a witness failing one of the per-lattice checks, or an
    element of the symmetric difference between the census and the
    reconstruction through maps.
    """
    witnesses = _census(n + k, k, r, bound_multiplier, jobs=jobs,
                        budget=budget)
    for lat in witnesses:
        fault = _check_witness(lat, n, r)
        if fault is not None:
            return lat, fault
    rebuilt = reconstruct_from_factorization(n, k, r, jobs=jobs, budget=budget)
    census = set(witnesses)
    formula_side = set(rebuilt)
    for lat in sorted(census.symmetric_difference(formula_side),
                      key=lambda l: (l.rank, l.basis)):
        if lat in census:
            return lat, "censused but not reachable through any map"
        return lat, "reachable through a map but missed by the census"
    if len(rebuilt) != len(formula_side):
        seen: set[Lattice] = set()
        for lat in rebuilt:
            if lat in seen:
                return lat, "reached through two different map/core pairs"
            seen.add(lat)
    return None
