"""Sublattices of Z^n and the coordinatewise product structure.

A Lattice is stored by its canonical Hermite basis with zero rows dropped, so
two objects are equal exactly when they describe the same subgroup of Z^n.
The multiplicative notions live here: closure of the row span under the
coordinatewise (Hadamard) product, torsion of the quotient, and the rigid
columns that every multiplicative basis has, all three read off the pivot
square of the basis (`_pivot_square`). Closure has that one rule: a basis
with no pivot square is never closed, so only a square is ever tested.
Torsion falls back on the Smith form for a basis with no square, since a
lattice that is not closed still has a torsion. `_Frozen`, the base of
Lattice and of the partitions module's AcceptableMap, makes them immutable
values without importing `dataclasses`.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Optional, Sequence

from .intlinalg import (IntMatrix, _in_span, hermite_normal_form,
                        smith_normal_form)


class _Frozen:
    """Immutable value whose fields are its class's `__slots__`.

    Assigning or deleting a field raises AttributeError, and pickle and
    copy rebuild a value through its constructor, so they run its
    validation again. A subclass validates its fields before it stores them
    with `object.__setattr__`, and writes its own `__eq__` (class-strict,
    over its fields in order) and `__hash__` (of the same fields): these
    cost what a frozen dataclass's do, and a generic pair here, reading the
    fields through `__slots__`, is slower per call. For the same reason a
    subclass that is built unchecked writes its own `_trusted` classmethod,
    which stores the named fields one by one without running the
    constructor, for a caller that has proved they pass its validation.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Lattice(_Frozen):
    """A subgroup of Z^ambient_dim given by its canonical Hermite basis.

    basis holds only the nonzero rows; the zero lattice has an empty basis.
    The degenerate ambient_dim 0 lattice is allowed and counts as full rank.
    The constructor validates a basis: ambient_dim is a nonnegative int and
    every row is a nonzero tuple of ambient_dim ints (bool excluded in
    both) whose lead, its pivot, is positive and lies right of the pivot of
    the row above, and every entry above a pivot is reduced into [0,
    pivot). It reads each row once for the entry types and once up to its
    lead, and the rows above at the pivot column only. Code holding a
    Lattice relies on that shape unchecked.

    There are three routes to a Lattice, each with one job. The constructor
    validates a basis. `_trusted` stores, unchecked, a basis that a proof
    covers: the core `enumeration.decompose` reads off a basis, its pivot
    square, and the image `partitions.apply_map` carries a full-rank basis
    to through an ordered map, each read off a validated basis that gives
    that shape by construction. `lattice_from_rows` canonicalizes any rows.
    """

    __slots__ = ("ambient_dim", "basis")
    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

    def __init__(self, ambient_dim: int,
                 basis: tuple[tuple[int, ...], ...]) -> None:
        n = ambient_dim
        # bool passes isinstance(int) but is never a dimension
        if type(n) is not int or n < 0:
            raise ValueError("ambient_dim must be a nonnegative integer")
        if not isinstance(basis, tuple):
            raise ValueError("basis must be a tuple of rows")
        start = 0  # one past the pivot of the row above
        for i, row in enumerate(basis):
            if not isinstance(row, tuple) or len(row) != n:
                raise ValueError("basis rows must match the ambient dimension")
            for x in row:
                # bool passes isinstance(int) but is never a legitimate entry
                if type(x) is not int:
                    raise ValueError(f"non-integer entry {x!r}")
            lead = 0
            while lead < n and not row[lead]:
                lead += 1
            if lead == n:
                raise ValueError("basis may not contain zero rows")
            d = row[lead]
            if lead < start or d < 0:
                raise ValueError("basis is not in canonical Hermite form")
            # entries above each pivot must already be reduced
            h = 0
            while h < i:
                if not 0 <= basis[h][lead] < d:
                    raise ValueError("basis is not in canonical Hermite form")
                h += 1
            start = lead + 1
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "basis", basis)

    @classmethod
    def _trusted(cls, ambient_dim: int,
                 basis: tuple[tuple[int, ...], ...]) -> Lattice:
        """The Lattice with these fields, stored as they are: the
        constructor does not run, so the caller must hold a proof that it
        would accept them."""
        value = object.__new__(cls)
        object.__setattr__(value, "ambient_dim", ambient_dim)
        object.__setattr__(value, "basis", basis)
        return value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return ((self.ambient_dim, self.basis)
                    == (other.ambient_dim, other.basis))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def corank(self) -> int:
        return self.ambient_dim - len(self.basis)

    @property
    def is_full_rank(self) -> bool:
        return len(self.basis) == self.ambient_dim

    def as_dict(self) -> dict:
        return {
            "ambient": self.ambient_dim,
            "rank": self.rank,
            "basis": [list(row) for row in self.basis],
        }


def lattice_from_rows(ambient_dim: int, rows: Iterable[Sequence[int]]) -> Lattice:
    """Lattice spanned by the given rows; canonicalizes and drops zero rows.

    The rows always go through `hermite_normal_form`, and the constructor
    validates the form's nonzero rows, once. The Hermite form of a span is
    unique, so rows that already form a canonical basis come back as they
    are. `partitions.apply_map` sends here the image of a full-rank lattice
    under an unordered map, which is never canonical: the leads of its rows
    strictly increase only if each label first appears after every smaller
    one, as in an ordered map.
    """
    mat = tuple(map(tuple, rows))
    for row in mat:
        if len(row) != ambient_dim:
            raise ValueError("row length does not match the ambient dimension")
    if not mat or ambient_dim == 0:
        return Lattice(ambient_dim, ())
    hnf = hermite_normal_form(mat)
    return Lattice(ambient_dim, tuple(r for r in hnf if any(r)))


def _column_labels(rows: Sequence[Sequence[int]], width: int
                   ) -> tuple[dict[tuple[int, ...], int], list[int]]:
    """One pass over the columns of rows: the label dict, the zero column
    labelled 0 then each distinct nonzero column 1, 2, ... by first use,
    and each column's label in column order. For a basis with a pivot
    square, the list is its ordered map's assignment and `zip(*labels)` the
    square's rows padded with a leading 0, which label 0 picks
    (`partitions._transport_rows`). No rows give width columns, each ()."""
    labels = {(0,) * len(rows): 0}
    if not rows:
        return labels, [0] * width
    return labels, [labels.setdefault(col, len(labels)) for col in zip(*rows)]


def _pivot_square(rows: Sequence[Sequence[int]]
                  ) -> Optional[Sequence[Sequence[int]]]:
    """The square of pivot columns of independent echelon rows, or None.

    In echelon rows (each row's lead strictly right of the lead of the row
    above) the pivot columns are distinct and nonzero: each is nonzero at
    its own row and zero below it. When they are all the distinct nonzero
    columns there are (`_column_labels`), every other column is zero or a
    copy of a pivot column left of it, so the columns in order of first
    use, zero column dropped, are the pivot columns, and the block they
    form, returned as rows, is upper triangular with the pivots on its
    diagonal.
    The span of the rows is then the image of the block's span under a map
    that copies and zeroes coordinates, which is injective and respects
    coordinatewise products: the rows' span is closed under products
    exactly when the block's is (`_square_closed`), and every maximal minor
    of the rows but the block's own has a zero or a repeated column, so
    their torsion order is its diagonal product (`_echelon_torsion`).

    The rows of a multiplicative lattice always have a square: their Q-span
    is a subalgebra of Q^m with no nilpotents, so it is spanned by
    orthogonal idempotents, which are 0/1 vectors. It is fixed by a
    partition of the coordinates that are not identically zero, as the
    vectors constant on each block and zero off them, and each row lies in
    it, so the rows have exactly rank-many distinct nonzero columns. No
    rows, or as many rows as columns, are their own square; any other input
    gives None.
    """
    if not rows or len(rows) == len(rows[0]):
        return rows
    labels = _column_labels(rows, len(rows[0]))[0]
    return ([row[1:] for row in zip(*labels)]
            if len(labels) == len(rows) + 1 else None)


def is_multiplicative(lat: Lattice) -> bool:
    """Closure of the lattice under coordinatewise products, decided on the
    pivot square of its basis alone.

    A basis with no pivot square is never closed, and one with a square is
    closed exactly when the square is; `_pivot_square` proves both. The
    square's test (`_square_closed`) checks products of its rows, which is
    enough: the product is bilinear in its two factors.
    """
    square = _pivot_square(lat.basis)
    return square is not None and _square_closed(square)


def _square_closed(square: Sequence[Sequence[int]]) -> bool:
    """Closure under products of the span of an upper-triangular square with
    nonzero diagonal.

    The product of rows i <= j vanishes left of column j, so it lies in the
    span exactly when it lies in the span of the rows j.., which
    `intlinalg._in_span` decides by exact division at each diagonal entry.
    A row v = d*e_j, zero right of its diagonal entry, needs no test: u*v =
    u[j]*v is a multiple of it. The last row is always such a row.
    """
    size = len(square)
    for j in range(size - 1):
        v = square[j]
        if not any(v[j + 1:]):
            continue
        rows, pivots = square[j:], range(j, size)
        for u in square[:j + 1]:
            if not _in_span(rows, pivots, [a * b for a, b in zip(u, v)],
                            size):
                return False
    return True


def torsion_size(lat: Lattice) -> int:
    """Order of the torsion subgroup of Z^ambient modulo the lattice: the
    diagonal product of the basis's pivot square when it has one, as every
    multiplicative or full-rank basis does, else the product of its Smith
    invariant factors (`_echelon_torsion`)."""
    return _echelon_torsion(lat.basis)


def _echelon_torsion(rows: Sequence[Sequence[int]]) -> int:
    """Order of the torsion subgroup of Z^cols modulo the span of independent
    echelon rows; 1 for no rows.

    The order is the gcd of the maximal minors: the product of the diagonal
    of the rows' pivot square (`_pivot_square`) when they have one, else the
    product of their invariant factors (`smith_normal_form`). The diagonal
    is read straight off the square's columns, kept by a `dict.fromkeys`
    pass, which numbers nothing and so costs less than `_column_labels`.
    """
    square = rows
    if rows and len(rows) < len(rows[0]):
        square = dict.fromkeys(zip(*rows))
        square.pop((0,) * len(rows), None)
        if len(square) != len(rows):
            return prod(smith_normal_form(rows))
    order = 1
    for i, line in enumerate(square):
        order *= line[i]
    return abs(order)


def has_rigid_columns(lat: Lattice) -> bool:
    """Does the canonical basis have exactly rank-many distinct nonzero columns?

    Multiplicative lattices always do, and the distinct-column count of any
    basis matrix of such a lattice is invariant under integer row operations.
    That count is the rank exactly when the basis has a pivot square
    (`_pivot_square`). Raises on non-multiplicative input since
    the question is only meaningful there.
    """
    if not is_multiplicative(lat):
        raise ValueError("lattice is not multiplicative")
    return _pivot_square(lat.basis) is not None


def banded_basis(lat: Lattice) -> IntMatrix:
    """A basis matrix whose entry (i, j) vanishes whenever j - i > corank.

    Obtained from the canonical basis by integer row operations only: run the
    Hermite reduction against the reversed column order, then undo the
    reversal. Strictly increasing pivots in the reversed frame turn into the
    required staircase bound in the original frame.
    """
    if not lat.basis:
        return ()
    reversed_cols = tuple(tuple(reversed(row)) for row in lat.basis)
    hnf = hermite_normal_form(reversed_cols)
    rows = [tuple(reversed(row)) for row in hnf if any(row)]
    rows.reverse()
    k = lat.corank
    for i, row in enumerate(rows):
        for j in range(lat.ambient_dim):
            if j - i > k and row[j] != 0:
                raise RuntimeError("internal: banded reduction failed")
    return tuple(rows)
