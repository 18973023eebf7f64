"""Coordinate-assignment maps between Z^n and Z^(n+k), and set partitions.

An acceptable map sends each target coordinate to a source coordinate or
to zero, using every source coordinate. The ordered ones list the
partitions of {0, ..., n+k} into n+1 blocks: target coordinate j sits in
the block of its source, and the block of the ghost element 0 holds the
zeroed coordinates. The partition {{0,3,4},{1,5},{2,7,8},{6}} of {0..8}
is the map (a,b,c) -> (a,b,0,0,a,c,b,b), whose assignment
(1,2,0,0,1,3,2,2) is the partition's restricted-growth string with the
ghost's label dropped. `apply_map` carries a full-rank lattice through a
map; AcceptableMap is an immutable value on `lattice._Frozen`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .intlinalg import _check_ints
from .lattice import Lattice, _Frozen, lattice_from_rows


class AcceptableMap(_Frozen):
    """Map Z^source_dim -> Z^target_dim given by one entry per target coordinate.

    assignment[j] is 0 when target coordinate j is identically zero, and
    i >= 1 when it copies source coordinate i. Every source index appears,
    which makes the map injective, so the map is its assignment: a tuple of
    nonnegative ints (bool excluded) whose nonzero entries are exactly
    1..max. target_dim is its length and source_dim its largest entry.
    """

    __slots__ = ("assignment",)
    assignment: tuple[int, ...]

    def __init__(self, assignment: tuple[int, ...]) -> None:
        if not isinstance(assignment, tuple):
            raise ValueError("assignment must be a tuple")
        for a in assignment:
            # bool passes isinstance(int) but is never a source index
            if type(a) is not int:
                raise ValueError(f"non-integer assignment entry {a!r}")
            if a < 0:
                raise ValueError(f"negative assignment entry {a}")
        used = set(assignment)
        used.discard(0)
        # m distinct positive labels are 1..m exactly when m is the largest
        if len(used) != max(used, default=0):
            raise ValueError("every source coordinate must be used")
        _set_assignment(self, assignment)

    @classmethod
    def _trusted(cls, assignment: tuple[int, ...]) -> AcceptableMap:
        """The map with this assignment, stored as it is: the constructor
        does not run, so the caller must hold a proof that it would accept
        it."""
        value = object.__new__(cls)
        _set_assignment(value, assignment)
        return value

    @property
    def source_dim(self) -> int:
        return max(self.assignment, default=0)

    @property
    def target_dim(self) -> int:
        return len(self.assignment)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.assignment == other.assignment
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.assignment)


_set_assignment = AcceptableMap.__dict__["assignment"].__set__


def stirling2(u: int, v: int) -> int:
    """Number of partitions of a u-element set into v nonempty blocks;
    ValueError on arguments that are not nonnegative ints (`bool` too)."""
    _check_ints((u, v))
    if u < 0 or v < 0:
        raise ValueError("arguments must be nonnegative")
    if v > u:
        return 0
    if u == 0:
        return 1
    if v == 0:
        return 0
    prev = [1] + [0] * v
    for _ in range(u):
        cur = [0] * (v + 1)
        for j in range(1, v + 1):
            cur[j] = j * prev[j] + prev[j - 1]
        prev = cur
    return prev[v]


def map_to_partition(g: AcceptableMap) -> tuple[tuple[int, ...], ...]:
    """Blocks of the partition of {0..target_dim} that a map encodes, each a
    sorted tuple, ordered by their minimum, as in the module's example; an
    unordered map gives the blocks of its ordered form."""
    groups: dict[int, list[int]] = {0: [0]}
    for j, a in enumerate(g.assignment):
        groups.setdefault(a, []).append(j + 1)
    return tuple(sorted(tuple(b) for b in groups.values()))


def _transport_rows(assignment: Sequence[int],
                    padded: Iterable[tuple[int, ...]]
                    ) -> tuple[tuple[int, ...], ...]:
    """Each row, padded with a leading 0, carried coordinate by coordinate
    through a map's assignment.

    Entry j of an image row is row[assignment[j]]: the pad puts source
    coordinate a at index a and gives a zeroed coordinate its 0, so the
    assignment is its own index list. One `itemgetter` picks a row's
    entries when there are two or more; fewer are picked one by one.
    """
    if len(assignment) < 2:
        return tuple([tuple([row[a] for a in assignment]) for row in padded])
    return tuple(map(itemgetter(*assignment), padded))


def _is_ordered(assignment: tuple[int, ...]) -> bool:
    """Whether an assignment is a growth string: each label first appears
    after every smaller label has, so no entry exceeds the largest before
    it by more than one."""
    top = 0
    for a in assignment:
        if a > top:
            if a != top + 1:
                return False
            top = a
    return True


def apply_map(g: AcceptableMap, lat: Lattice) -> Lattice:
    """Image of a full-rank lattice of Z^source_dim under an acceptable map,
    of the same rank in Z^target_dim; ValueError for any other lattice.

    The rows come from `_transport_rows`. For an ordered map
    (`_is_ordered`) they are already the canonical Hermite basis of the
    image, stored without the constructor (`Lattice._trusted`). Say label
    i + 1 first appears at target coordinate f_i, so f_0 < f_1 < ... Left
    of f_i every label is at most i, and lat's basis is upper triangular,
    so image row i is zero there: it leads at f_i with lat's positive pivot
    i, and the leads strictly increase. The entry of row h < i above that
    lead is lat's entry above pivot i, already reduced into [0, pivot).
    Every entry is an int copied from lat, and each row a tuple of
    target_dim entries. An unordered map's rows are never canonical, so
    they go to `lattice_from_rows`.
    """
    assignment, basis = g.assignment, lat.basis
    if lat.ambient_dim != max(assignment, default=0):
        raise ValueError("lattice ambient dimension must equal the map source")
    if len(basis) != lat.ambient_dim:
        raise ValueError("apply_map needs a full-rank lattice")
    rows = _transport_rows(assignment, [(0,) + row for row in basis])
    if _is_ordered(assignment):
        return Lattice._trusted(len(assignment), rows)
    return lattice_from_rows(len(assignment), rows)


def enumerate_ordered_maps(source_dim: int, target_dim: int) -> Iterator[AcceptableMap]:
    """All ordered acceptable maps Z^source_dim -> Z^target_dim.

    There are stirling2(target_dim + 1, source_dim + 1), one per partition,
    listed by their growth strings in lexicographic order: an entry is at
    most one more than the largest before it, the ghost 0 counting as the
    first, and a string is dropped once too few entries are left to use
    every label. ValueError, on first iteration, on arguments that are not
    ints (`bool` too) or break 0 <= source_dim <= target_dim.
    """
    _check_ints((source_dim, target_dim))
    if source_dim < 0 or target_dim < source_dim:
        raise ValueError("need 0 <= source_dim <= target_dim")
    labels = [0] * target_dim

    def rec(j: int, used: int) -> Iterator[AcceptableMap]:
        # labels 0..used-1 are taken, and each of the target_dim - j entries
        # left can take one more
        if used + target_dim - j <= source_dim:
            return
        if j == target_dim:
            yield AcceptableMap(tuple(labels))
            return
        for lab in range(min(used, source_dim) + 1):
            labels[j] = lab
            yield from rec(j + 1, max(used, lab + 1))

    try:
        yield from rec(0, 1)
    finally:
        # rec calls itself through its own closure cell; emptying the cell
        # breaks that cycle, so rec is freed when the listing ends
        del rec


def map_to_string(g: AcceptableMap) -> str:
    """Assignment pattern like 'a,b,0,0,a,c,b,b' (letters name the sources)."""
    out = []
    for a in g.assignment:
        if a == 0:
            out.append("0")
        elif a <= 26:
            out.append(chr(ord("a") + a - 1))
        else:
            out.append(f"s{a}")
    return ",".join(out)
