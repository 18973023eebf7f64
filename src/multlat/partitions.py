"""Set partitions and coordinate-assignment maps between Z^n and Z^(n+k).

An acceptable map sends each target coordinate either to a fixed source
coordinate or to zero, with every source coordinate used at least once. Such
maps (up to relabeling of the sources) correspond to partitions of the set
{0, ..., n+k} into n+1 blocks: target coordinate j sits in the block of the
source it copies, and the block containing the ghost element 0 collects the
zeroed coordinates. Example: the partition {{0,3,4},{1,5},{2,7,8},{6}} of
{0..8} corresponds to the map (a,b,c) -> (a,b,0,0,a,c,b,b).

SetPartition and AcceptableMap are immutable values on the lattice module's
`_Frozen` base; each constructor checks the types of its fields as well as
the shape of the partition or map.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, Sequence

from .lattice import Lattice, _Frozen, lattice_from_rows


class SetPartition(_Frozen):
    """Partition of {0, ..., ground_size-1} into sorted blocks ordered by minimum.

    ground_size is an int and blocks a tuple of tuples of ints (bool
    excluded in both).
    """

    __slots__ = ("ground_size", "blocks")
    ground_size: int
    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, ground_size: int,
                 blocks: tuple[tuple[int, ...], ...]) -> None:
        if type(ground_size) is not int:
            raise ValueError("ground_size must be an integer")
        if ground_size < 1:
            raise ValueError("ground set must be nonempty")
        if not isinstance(blocks, tuple):
            raise ValueError("blocks must be a tuple of blocks")
        seen: set[int] = set()
        prev_min = -1
        for block in blocks:
            if not isinstance(block, tuple):
                raise ValueError("each block must be a tuple")
            for x in block:
                if type(x) is not int:
                    raise ValueError(f"non-integer element {x!r}")
            if not block:
                raise ValueError("empty block")
            if list(block) != sorted(block):
                raise ValueError("blocks must be sorted")
            if block[0] <= prev_min:
                raise ValueError("blocks must be ordered by their minimum")
            prev_min = block[0]
            seen.update(block)
        if seen != set(range(ground_size)):
            raise ValueError("blocks must partition the ground set exactly")
        if sum(len(b) for b in blocks) != ground_size:
            raise ValueError("blocks overlap")
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "blocks", blocks)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return ((self.ground_size, self.blocks)
                    == (other.ground_size, other.blocks))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ground_size, self.blocks))

    @property
    def block_count(self) -> int:
        return len(self.blocks)


class AcceptableMap(_Frozen):
    """Map Z^source_dim -> Z^target_dim given by one entry per target coordinate.

    assignment[j] is 0 when target coordinate j is identically zero, and
    i in 1..source_dim when it copies source coordinate i. Every source index
    must appear at least once, which makes the map injective. Both
    dimensions are ints and assignment is a tuple of ints (bool excluded).
    """

    __slots__ = ("source_dim", "target_dim", "assignment")
    source_dim: int
    target_dim: int
    assignment: tuple[int, ...]

    def __init__(self, source_dim: int, target_dim: int,
                 assignment: tuple[int, ...]) -> None:
        if type(source_dim) is not int or type(target_dim) is not int:
            raise ValueError("source_dim and target_dim must be integers")
        if source_dim < 0 or target_dim < source_dim:
            raise ValueError("need 0 <= source_dim <= target_dim")
        if not isinstance(assignment, tuple):
            raise ValueError("assignment must be a tuple")
        if len(assignment) != target_dim:
            raise ValueError("assignment length must equal target_dim")
        for a in assignment:
            # bool passes isinstance(int) but is never a source index
            if type(a) is not int:
                raise ValueError(f"non-integer assignment entry {a!r}")
        used = set(assignment)
        used.discard(0)
        if used != set(range(1, source_dim + 1)):
            # an entry out of range is reported before a source left unused
            for a in assignment:
                if not 0 <= a <= source_dim:
                    raise ValueError(f"assignment entry {a} out of range")
            raise ValueError("every source coordinate must be used")
        object.__setattr__(self, "source_dim", source_dim)
        object.__setattr__(self, "target_dim", target_dim)
        object.__setattr__(self, "assignment", assignment)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return ((self.source_dim, self.target_dim, self.assignment)
                    == (other.source_dim, other.target_dim, other.assignment))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.source_dim, self.target_dim, self.assignment))


def stirling2(u: int, v: int) -> int:
    """Number of partitions of a u-element set into v nonempty blocks."""
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


def enumerate_partitions(ground_size: int, block_count: int) -> Iterator[SetPartition]:
    """All partitions of {0..ground_size-1} into block_count blocks.

    Deterministic order: lexicographic in the restricted-growth string that
    assigns each element its block label.
    """
    if not 1 <= block_count <= ground_size:
        raise ValueError("need 1 <= block_count <= ground_size")
    labels = [0] * ground_size

    def rec(i: int, used: int) -> Iterator[SetPartition]:
        if i == ground_size:
            if used == block_count:
                blocks: list[list[int]] = [[] for _ in range(block_count)]
                for elem, lab in enumerate(labels):
                    blocks[lab].append(elem)
                yield SetPartition(ground_size, tuple(tuple(b) for b in blocks))
            return
        # still need block_count - used fresh labels among the remaining slots
        if used + (ground_size - i) < block_count:
            return
        top = min(used, block_count - 1)
        for lab in range(top + 1):
            labels[i] = lab
            yield from rec(i + 1, max(used, lab + 1))

    yield from rec(0, 0)


def partition_to_map(p: SetPartition, source_dim: int) -> AcceptableMap:
    """Ordered acceptable map encoded by a partition with source_dim+1 blocks.

    The block containing 0 marks the zeroed target coordinates; the remaining
    blocks, in order of their minima, give the coordinates copying sources
    1..source_dim.
    """
    if p.block_count != source_dim + 1:
        raise ValueError("partition must have source_dim + 1 blocks")
    target_dim = p.ground_size - 1
    assignment = [0] * target_dim
    for label, block in enumerate(p.blocks):
        if label == 0:
            continue
        for elem in block:
            assignment[elem - 1] = label
    return AcceptableMap(source_dim, target_dim, tuple(assignment))


def map_to_partition(g: AcceptableMap) -> SetPartition:
    """Partition of {0..target_dim} encoded by a map; inverts partition_to_map.

    For an unordered map this still produces a valid partition, whose image
    under partition_to_map is the ordered form of g.
    """
    groups: dict[int, list[int]] = {0: [0]}
    for j, a in enumerate(g.assignment):
        groups.setdefault(a, []).append(j + 1)
    blocks = sorted(groups.values(), key=lambda b: b[0])
    return SetPartition(g.target_dim + 1, tuple(tuple(b) for b in blocks))


def _transport_rows(g: AcceptableMap, rows: Sequence[tuple[int, ...]]
                    ) -> tuple[tuple[int, ...], ...]:
    """Each row carried coordinate by coordinate through the map g.

    Entry j of an image row is row[a - 1] for a = g.assignment[j], or 0 when
    a is 0. One index list serves every row: a - 1 is -1 for a zeroed
    coordinate, which picks the 0 appended to the row. With two or more
    target coordinates one `itemgetter` picks a row's entries as a tuple;
    with fewer it would return a bare entry or refuse, so those rows are
    picked one index at a time.
    """
    idx = [a - 1 for a in g.assignment]
    if len(idx) < 2:
        return tuple(tuple([(row + (0,))[i] for i in idx]) for row in rows)
    pick = itemgetter(*idx)
    return tuple([pick(row + (0,)) for row in rows])


def apply_map(g: AcceptableMap, lat: Lattice) -> Lattice:
    """Image of a full-rank lattice under an acceptable map.

    Each basis row is transported through g (`_transport_rows`); the image has
    the same rank inside Z^target_dim. For an ordered map the image rows are
    already the canonical basis of the image, and `lattice_from_rows` hands
    them to the constructor uncopied; an unordered map's fail its check and
    are put into Hermite form.
    """
    if lat.ambient_dim != g.source_dim:
        raise ValueError("lattice ambient dimension must equal the map source")
    if not lat.is_full_rank:
        raise ValueError("apply_map needs a full-rank lattice")
    return lattice_from_rows(g.target_dim, _transport_rows(g, lat.basis))


def enumerate_ordered_maps(source_dim: int, target_dim: int) -> Iterator[AcceptableMap]:
    """All ordered acceptable maps Z^source_dim -> Z^target_dim.

    There are stirling2(target_dim + 1, source_dim + 1) of them, one per
    partition of {0..target_dim} into source_dim + 1 blocks.
    """
    if source_dim < 0 or target_dim < source_dim:
        raise ValueError("need 0 <= source_dim <= target_dim")
    for p in enumerate_partitions(target_dim + 1, source_dim + 1):
        yield partition_to_map(p, source_dim)


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
