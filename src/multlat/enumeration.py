"""The checker: the engines' public API, and the factorization verifier.

The scan (`scan._run_shards`) gives both censuses as bases: the co-rank
census (`enumerate_corank_oracle`) and, at co-rank 0, the full-rank census
(`enumerate_full_rank_multiplicative`). `_checked` turns every census into
Lattices by one rule, and `_verify` pits each cell's census against the
formula, in bulk, and witness by witness (`_place`) on a cell that fails.
Each argument has one home, the docstring of the function that rests on it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Iterable, NamedTuple, Optional

from .intlinalg import _solve
from .lattice import (Lattice, _column_labels, _key_square, _label_keys,
                      _square_closed, is_multiplicative, torsion_size)
from .partitions import (
    AcceptableMap,
    apply_map,
    enumerate_ordered_maps,
    stirling2,
)
from .scan import _check_cell, _run_shards


class VerificationReport(NamedTuple):
    """Outcome of one verification cell: status is 'pass' exactly when the
    census count equals the formula count and no witness is a stray
    (`_verify`)."""

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


def _checked(ambient: int, bases: Iterable[tuple[tuple[int, ...], ...]],
             rank: int, torsion: int) -> list[Lattice]:
    """An engine's bases of Z^ambient as Lattices, validated, then
    re-verified independently of its own math: the one rule for every census.

    A basis the constructor rejects raises RuntimeError "internal: engine
    produced an invalid basis: ...", a failed self-check (exit 3), not its
    ValueError, a usage error (exit 2). A lattice re-verified must have the
    given rank, be closed under products (`is_multiplicative`) and have the
    given torsion (`torsion_size`), tested in that order; the first failure
    raises RuntimeError. Below full rank that is one lattice of each key
    (`lattice._label_keys`): a validated basis with rows has a nonzero
    column as tall as they are many, so one key means one row count, so one
    rank, and one pivot square, so one closure and torsion
    (`lattice._pivot_square`), and with no square every basis fails
    closure, so no torsion is compared. Keys keep the order of first use,
    so the first failing key is the first failing lattice's. At full rank
    each lattice is its own key, its columns distinct and nonzero, so every
    one is re-verified and no key is built.
    """
    try:
        lats = [Lattice(ambient, b) for b in bases]
    except ValueError as exc:
        raise RuntimeError(
            f"internal: engine produced an invalid basis: {exc}") from exc
    per_key = lats if rank == ambient else dict(
        zip(_label_keys([lat.basis for lat in lats], rank), lats)).values()
    for lat in per_key:
        if len(lat.basis) != rank or not is_multiplicative(lat):
            raise RuntimeError("internal: engine produced a bad lattice")
        if torsion_size(lat) != torsion:
            raise RuntimeError("internal: engine produced a wrong torsion")
    return lats


# ---------------------------------------------------------------------------
# the engines: the scan's censuses, validated and re-verified


def enumerate_full_rank_multiplicative(n: int, index: int, *, jobs: int = 1,
                                       budget: Optional[int] = None) -> list[Lattice]:
    """All full-rank multiplicative sublattices of Z^n with the given index,
    each once, ascending by their basis rows read last row first
    (basis[::-1], `scan._key`): the census of `scan._corank_worker` at
    co-rank 0, checked (`_checked`). Z^0 is the one lattice at n = 0, of
    index 1. The cell rule, jobs and budget are `scan._run_shards`'.
    """
    return _checked(n, _run_shards(n, 0, index, jobs, budget), n, index)


def count_full_rank(n: int, index: int, *, jobs: int = 1,
                    budget: Optional[int] = None) -> int:
    """Number of full-rank multiplicative sublattices of Z^n of given index.

    At n = 0 that is 1 for index 1, Z^0 itself, and 0 for any other.
    """
    return len(enumerate_full_rank_multiplicative(n, index, jobs=jobs, budget=budget))


def count_unital(n: int, index: int, *, jobs: int = 1,
                 budget: Optional[int] = None) -> int:
    """Number of index-`index` subrings of Z^n containing 1 = (1, ..., 1).
    At n = 0 the empty product makes Z^0 itself the single subring, of
    index 1; the cell rule, jobs and budget are `scan._run_shards`'.

    For n >= 1 these are the lifts Z*1 + (0 + L') of the full-rank subrings
    L' of Z^(n-1) of the same index, 0 + L' being the (0, x) for x in L',
    one lift each (R. I. Liu, "Counting subrings of Z^n of index k", JCTA
    114, 2007); so the count lifts each basis of the full-rank census one
    rank down (`_unital_basis`). For p, p' in 0 + L', (a*1 + p)(b*1 + p') =
    ab*1 + (a*p' + b*p + p*p'), so the lift is closed exactly when each
    p*p' lies in 0 + L', that is when L' is. Its basis, 1 over the rows of
    0 + L', is triangular with diagonal 1 and that of L', so its index is
    1 * [Z^(n-1) : L']. A unital M holds m - m_1*1 for each m in M, so M is
    Z*1 plus M cut by first coordinate 0, which is 0 + L' for the one L'
    it recovers: each unital M of the index arises once.

    The lifts are checked (`_checked`) and each is solved for 1 by exact
    division (`intlinalg._solve`): one without it is an internal error,
    RuntimeError "internal: ..." (exit 3 on the command line).
    """
    if n == 0:
        bases = _run_shards(0, 0, index, jobs, budget)
    else:
        bases = map(_unital_basis, _run_shards(n - 1, 0, index, jobs, budget))
    lats = _checked(n, bases, n, index)
    # a full-rank Hermite basis pivots on the diagonal
    if not all(_solve(lat.basis, enumerate(range(n)), [1] * n) is not None
               for lat in lats):
        raise RuntimeError("internal: unital census listed a lattice "
                           "without (1, ..., 1)")
    return len(lats)


def _unital_basis(basis: tuple[tuple[int, ...], ...]
                  ) -> tuple[tuple[int, ...], ...]:
    """The canonical Hermite basis of Z*1 + (0 + L'), L' the span of a
    canonical full-rank basis of Z^(n-1) (`count_unital`): the basis's rows
    each behind a 0, under 1 = (1, ..., 1) reduced against them at their
    pivots into [0, pivot), which past its leading 1 is 1 reduced column by
    column against the basis itself.
    """
    v = [1] * len(basis)
    for c, row in enumerate(basis):
        m = v[c] // row[c]
        if m:
            v = [a - m * b for a, b in zip(v, row)]
    return ((1, *v), *[(0, *row) for row in basis])


def enumerate_corank_oracle(ambient: int, corank: int, torsion: int, *,
                            jobs: int = 1,
                            budget: Optional[int] = None) -> list[Lattice]:
    """Brute-force census of the multiplicative sublattices of Z^ambient of a
    given co-rank and torsion, each once, ascending by their basis rows
    read last row first (basis[::-1], `scan._key`).

    The scan (`scan._corank_worker`) never consults the formula it is
    compared with. Its census is checked (`_checked`), so at co-rank 0 it
    is the full-rank census under the full-rank checks. jobs and budget are
    `scan._run_shards`'.
    """
    return _checked(ambient, _census(ambient, corank, torsion, jobs=jobs,
                                     budget=budget), ambient - corank, torsion)


def _census(ambient: int, corank: int, torsion: int, *, jobs: int,
            budget: Optional[int]) -> list[tuple[tuple[int, ...], ...]]:
    """The repeat-free bases `enumerate_corank_oracle` checks and `_verify`
    places, in `scan._run_shards`' order, the same at every jobs;
    ValueError on a cell that breaks its cell rule."""
    return _run_shards(ambient, corank, torsion, jobs, budget)


# ---------------------------------------------------------------------------
# the factorization under test


def count_corank_formula(n: int, k: int, r: int, *, jobs: int = 1,
                         budget: Optional[int] = None) -> int:
    """Closed-form count: stirling2(n+k+1, n+1) times the full-rank count,
    which runs under the given jobs and budget. The cell (n + k, k, r) is
    checked first against `scan._run_shards`' cell rule, as stirling2 would
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
    rectangular, and g carries L back to lat (`_place` holds the
    argument).

    One label key, one square, one closure proof: the label dict's keys,
    as a tuple, are the key `lattice._label_keys` builds, and they name the
    square (`lattice._key_square`), so the key alone fixes L and whether it
    is closed. `_closed_core` proves that once per key and builds L through
    the constructor, which accepts it: lat's basis is validated, so its
    square is upper triangular with lat's positive pivots on its diagonal
    and lat's reduced entries above them, all ints. A core of Z^n has
    stirling2(n+k+1, n+1) images in Z^(n+k), so decomposing a co-rank
    census meets each key that many times, and every visit after the first
    is a lookup. Only g skips its constructor
    (`AcceptableMap._trusted`): its labels, 0..rank, each used and each
    first used after every smaller one, make it ordered and acceptable.

    The memo is an LRU of 512 keys, so its memory is bounded
    whatever the census. An entry, its key, its core and the cache's own
    link, costs about 1.2 KB of peak memory at rank <= 5. A round trip of
    every core of index <= 10 through every ordered map with n + k <= 5
    looks up 1,526 keys 24,576 times: 512 entries answer 92% of the
    lookups for about 0.6 MB, 3.5% of that process's peak; 128 answer 70%
    and keep a quarter of the time saved, and 1,024 answer one lookup in
    seventy more at twice the memory.
    """
    rank = len(lat.basis)
    labels, assignment = _column_labels(lat.basis, lat.ambient_dim)
    if len(labels) == rank + 1:
        core = _closed_core(tuple(labels))
        if core is not None:
            return AcceptableMap._trusted(tuple(assignment)), core
    raise ValueError("lattice is not multiplicative")


@lru_cache(maxsize=512)
def _closed_core(key: tuple) -> Optional[Lattice]:
    """The full-rank core of a basis whose label key
    (`lattice._label_keys`) is key, when the square it names
    (`lattice._key_square`) is closed (`lattice._square_closed`), else
    None. Only `decompose` reads it; its docstring argues the memo and its
    bound."""
    square = _key_square(key)
    return Lattice(len(key) - 1, square) if _square_closed(square) else None


def _place(ambient: int, witnesses: list[tuple[tuple[int, ...], ...]],
           cores: dict[tuple, list], rank: int, r: int) -> list[Lattice]:
    """Place each witness basis of Z^ambient on its full-rank lattice, and
    return the strays, the witnesses placed on none, as Lattices in order.
    `_verify` runs it only on a cell its bulk verdict does not pass.

    cores holds, under each full-rank lattice's key (`lattice._label_keys`),
    the list of witness bases placed on it. A witness of rank rows, each of
    ambient entries, whose key is a core's is placed on that core, with
    no map or Lattice built. It is the core carried through its own labels,
    its ordered map's assignment (`partitions._transport_rows`): it has the
    core's row count, and each column's label names that column in the
    key. So it is a canonical basis (`partitions.apply_map`) with the
    core's rank, closure and torsion (`lattice._pivot_square`), which the
    full-rank census re-verified. The shape is checked apart from the key,
    the widths as the set of row lengths: `zip` stops at the shortest row,
    so a longer row leaves the key unchanged.
    `decompose` rests on the same argument for its rectangular basis.
    Placement compares by value, as entries do: True or 1.0 equals 1. The
    constructor stays the only type check, run by `_checked` on the
    full-rank census and on every lattice `_verify` returns. Any other
    witness, of the wrong width or row count included, is a stray,
    censused but not reachable through any map, checked after the pass.
    """
    strays = []
    for basis, key in zip(witnesses, _label_keys(witnesses, rank)):
        placed = (cores.get(key) if len(basis) == rank
                  and {*map(len, basis)} <= {ambient} else None)
        (strays if placed is None else placed).append(basis)
    return _checked(ambient, strays, rank, r)


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
    """The cell's report, and on a failing cell its offending lattice with
    a reason, or None.

    The census and the full-rank lattices are each taken once. The cell
    passes exactly when its count is the formula's and every witness has n
    rows of ambient entries and a core's key, checked in bulk. Each such
    witness is placed (`_place`), its core's image under its own ordered
    map; the census is repeat-free (`scan._run_shards` raises "lattice
    twice") and a core has at most S = stirling2(n+k+1, n+1) images, so S
    times as many witnesses as cores hold exactly S on each, and no
    per-core list is needed. A witness fails the test exactly when `_place`
    strays it, and on a failing cell `_place` runs to its end, so an engine
    fault in any witness raises. Each lattice of the cell is the image of
    one full-rank core under one ordered map, so a failing cell is
    explained by the lattices on one side only. The search takes the strays
    and the witnesses of the suspects, the full-rank lattices that hold
    other than S, against the suspects' images under the ordered maps; any
    other lattice's witnesses are its images, each once. The offender is
    the least lattice by (rank, basis) on one side only, so it does not
    depend on the census order; failing that, the first image reached
    twice. A cell with neither fails on its count alone, and names none.
    Only a stray or a suspect's witness becomes a Lattice, through
    `_checked`, so every lattice returned is validated.
    """
    ambient = n + k
    witnesses = _census(ambient, k, r, jobs=jobs, budget=budget)
    stirling_factor = stirling2(n + k + 1, n + 1)
    cores = enumerate_full_rank_multiplicative(n, r, jobs=jobs, budget=budget)
    keyed = {key: [] for key in _label_keys([c.basis for c in cores], n)}
    formula_count = stirling_factor * len(cores)
    passed = (len(witnesses) == formula_count
              and {*map(len, witnesses)} <= {n}
              and {*map(len, chain.from_iterable(witnesses))} <= {ambient}
              and all(map(keyed.__contains__, _label_keys(witnesses, n))))
    report = VerificationReport(
        n=n, k=k, r=r,
        oracle_count=len(witnesses),
        formula_count=formula_count,
        stirling_factor=stirling_factor,
        full_rank_count=len(cores),
        witnesses_checked=len(witnesses),
        status="pass" if passed else "fail",
    )
    if passed:
        return report, None
    strays = _place(ambient, witnesses, keyed, n, r)
    suspects = [(core, placed) for core, placed in zip(cores, keyed.values())
                if len(placed) != stirling_factor]
    rebuilt = [apply_map(g, core) for g in enumerate_ordered_maps(n, n + k)
               for core, _ in suspects]
    census = set(_checked(ambient, [basis for _, placed in suspects
                                    for basis in placed], n, r) + strays)
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
