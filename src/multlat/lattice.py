"""Sublattices of Z^n and the coordinatewise product structure.

A Lattice is stored by its canonical Hermite basis, so two are equal
exactly when they are the same subgroup. A basis's pivot square
(`_pivot_square`), found by one pass over its columns (`_column_labels`),
decides closure under products (`is_multiplicative`) and torsion
(`torsion_size`). Its label key, its distinct columns by first use, built
here alone (`_label_keys`), names that square (`_key_square`). `_Frozen`
makes Lattice and the partitions module's AcceptableMap immutable values
without importing `dataclasses`.
"""

from __future__ import annotations

from itertools import chain, islice, repeat, starmap
from math import prod
from typing import Iterable, Iterator, Optional, Sequence

from .intlinalg import IntMatrix, hermite_normal_form, smith_normal_form


class _Frozen:
    """Immutable value whose fields are its class's `__slots__`.

    Assigning or deleting a field raises AttributeError, and pickle and copy
    rebuild a value through its constructor, which validates it again. A
    subclass stores validated fields through their slots' member
    descriptors, each `__set__` bound once in its module, which skips the
    raising `__setattr__` at less cost than `object.__setattr__`, and writes
    its own class-strict `__eq__`, `__hash__` and, if built unchecked,
    `_trusted`: a generic version here, reading `__slots__`, is slower.
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

    basis holds only the nonzero rows; the zero lattice has an empty basis,
    and ambient_dim 0 counts as full rank. The constructor validates a
    basis: ambient_dim is a nonnegative int and every row a nonzero tuple of
    ambient_dim ints (bool excluded in both) whose lead, its pivot, is
    positive and right of the pivot above, with every entry above a pivot in
    [0, pivot). The three routes to a Lattice are the constructor, `_trusted`
    for the images `partitions.apply_map` proves canonical, and
    `lattice_from_rows`.
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
        _set_ambient_dim(self, n)
        _set_basis(self, basis)

    @classmethod
    def _trusted(cls, ambient_dim: int,
                 basis: tuple[tuple[int, ...], ...]) -> Lattice:
        """The Lattice with these fields, stored as they are: the
        constructor does not run, so the caller must hold a proof that it
        would accept them."""
        value = object.__new__(cls)
        _set_ambient_dim(value, ambient_dim)
        _set_basis(value, basis)
        return value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.basis == other.basis
                    and self.ambient_dim == other.ambient_dim)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def corank(self) -> int:
        return self.ambient_dim - len(self.basis)

    def as_dict(self) -> dict:
        return {
            "ambient": self.ambient_dim,
            "rank": self.rank,
            "basis": [list(row) for row in self.basis],
        }


_set_ambient_dim = Lattice.__dict__["ambient_dim"].__set__
_set_basis = Lattice.__dict__["basis"].__set__


def lattice_from_rows(ambient_dim: int, rows: Iterable[Sequence[int]]) -> Lattice:
    """Lattice spanned by the given rows, canonicalized, zero rows dropped:
    the rows always go through `hermite_normal_form`, and the constructor
    validates its nonzero rows once."""
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
    and each column's label in column order; with no rows, each of the
    width columns is () and labelled 0. With a pivot square
    (`_pivot_square`), the list is the ordered map's assignment and the
    dict's keys, the label key, name the square (`_key_square`)."""
    labels = {(0,) * len(rows): 0}
    if not rows:
        return labels, [0] * width
    return labels, [labels.setdefault(col, len(labels)) for col in zip(*rows)]


def _label_keys(bases: Iterable[tuple[tuple[int, ...], ...]],
                rank: int) -> Iterator[tuple]:
    """Each basis's label dict (`_column_labels`) as a tuple, its label key,
    for bases of rank rows, with no Python call per basis. `dict.fromkeys`
    keeps the first key object put in and their order, as `setdefault`
    does, so it is that tuple object for object: ((),) for no rows, `zip`
    stopping at the shortest row in both, and of equal columns, one holding
    True or 1.0 for 1, the first kept. The zero column is rank tall at any
    row count, so a caller checks row counts: at ambient 0 it is the key."""
    return map(tuple, map(dict.fromkeys, map(
        chain, repeat(((0,) * rank,)), starmap(zip, bases))))


def _key_square(key: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """The rows of the square a label key names (`_label_keys`): its
    columns past the zero column, transposed."""
    return tuple(zip(*islice(key, 1, None)))


def _pivot_square(rows: Sequence[Sequence[int]]
                  ) -> Optional[Sequence[Sequence[int]]]:
    """The square of pivot columns of independent echelon rows, or None.

    In echelon rows the pivot columns are distinct and nonzero: each is
    nonzero at its own row and zero below it. When they are all the distinct
    nonzero columns (`_column_labels`), every other column is zero or a copy
    of a pivot column left of it, so the columns in order of first use, zero
    column dropped, are the pivot columns, and the block they form, returned
    as rows, is upper triangular with the pivots on its diagonal. The rows'
    span is the image of the block's under a map that copies and zeroes
    coordinates, injective and respecting products: it is closed exactly
    when the block's is (`_square_closed`), and every maximal minor of the
    rows but the block's has a zero or a repeated column, so their torsion
    is its diagonal product (`_echelon_torsion`). Rows with one label key
    have one square, so they share rank, closure and torsion.

    The rows of a multiplicative lattice always have a square: their Q-span
    is a subalgebra of Q^m with no nilpotents, so it is spanned by
    orthogonal idempotents, which are 0/1 vectors: it is the vectors that
    are constant on each block of a partition of the coordinates not
    identically zero, and zero off them. Each row lies in it, so the rows
    have exactly rank-many distinct nonzero columns, and a basis with no
    square is never closed. No rows, or as many rows as columns, are their
    own square.
    """
    if not rows or len(rows) == len(rows[0]):
        return rows
    labels = _column_labels(rows, len(rows[0]))[0]
    return _key_square(labels) if len(labels) == len(rows) + 1 else None


def is_multiplicative(lat: Lattice) -> bool:
    """Closure of the lattice under coordinatewise products, decided on the
    pivot square of its basis alone (`_pivot_square`)."""
    square = _pivot_square(lat.basis)
    return square is not None and _square_closed(square)


def _square_closed(square: Sequence[Sequence[int]]) -> bool:
    """Closure under products of the span of an upper-triangular square with
    nonzero diagonal.

    Products of rows suffice. A row d*e_i, with size - 1 zeros, needs none:
    its product with a row above is a multiple of it, with one below 0. Each
    other row v, row j, is multiplied by itself and each such u above. u*v
    is 0 left of column j and u[j]*v[j] at j, so it is in the span exactly
    when w = v*(u - u[j]), 0 through j (the scan's v*(v - d) at u = v), is in
    that of the rows after j, as a zero w is. w, a fresh list, is reduced in
    place by exact division down their pivot columns; an entry so zeroed is
    never read again, so it is not written, and no final pass is needed.
    """
    last = len(square) - 1
    tested = []
    for j, v in enumerate(square):
        if v.count(0) != last:
            tested.append(v)
            for u in tested:
                uj = u[j]
                w = [a * (b - uj) for a, b in zip(v, u)]
                if not any(w):
                    continue
                for c in range(j + 1, last + 1):
                    x = w[c]
                    if x:
                        row = square[c]
                        d = row[c]
                        if x % d:
                            return False
                        q = x // d
                        for i in range(c + 1, last + 1):
                            w[i] -= q * row[i]
    return True


def torsion_size(lat: Lattice) -> int:
    """Order of the torsion subgroup of Z^ambient modulo the lattice
    (`_echelon_torsion`)."""
    return _echelon_torsion(lat.basis)


def _echelon_torsion(rows: Sequence[Sequence[int]]) -> int:
    """Order of the torsion subgroup of Z^cols modulo the span of independent
    echelon rows; 1 for no rows.

    The diagonal product of their pivot square (`_pivot_square`), read off
    its columns by a `dict.fromkeys` pass, which costs less than
    `_column_labels`; with no square, the product of their invariant factors.
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
    """Whether the canonical basis has a pivot square: True, as every
    multiplicative basis has one (`_pivot_square`), so none is built;
    ValueError on any other lattice."""
    if not is_multiplicative(lat):
        raise ValueError("lattice is not multiplicative")
    return True


def banded_basis(lat: Lattice) -> IntMatrix:
    """A basis matrix whose entry (i, j) vanishes whenever j - i > corank.

    By integer row operations only: the Hermite form against the reversed
    column order, reversed back, whose increasing pivots become the band.
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
