"""Sublattices of Z^n and the coordinatewise product structure.

A Lattice is stored by its canonical Hermite basis with zero rows dropped, so
two objects are equal exactly when they describe the same subgroup of Z^n.
The multiplicative notions live here: closure of the row span under the
coordinatewise (Hadamard) product, torsion of the quotient, and the rigid
columns that every multiplicative basis has. `_Frozen`, the base of Lattice
and of the partitions module's value types, makes them immutable values
without importing `dataclasses`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .intlinalg import (
    IntMatrix,
    _echelon_torsion,
    _pivot_square,
    hermite_normal_form,
    solve_in_row_span,
)


class _Frozen:
    """Immutable value whose fields are its class's `__slots__`.

    Assigning or deleting a field raises AttributeError, and pickle and
    copy rebuild a value through its constructor, so they run its
    validation again. A subclass validates its fields before it stores them
    with `object.__setattr__`, and writes its own `__eq__` (class-strict,
    over its fields in order) and `__hash__` (of the same tuple): these
    cost what a frozen dataclass's do, and a generic pair here, reading the
    fields through `__slots__`, is slower per call.
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
    The constructor is the one place a basis is validated: ambient_dim is a
    nonnegative int and every row is a nonzero tuple of ambient_dim ints
    (bool excluded in both) whose lead, its pivot, is positive and lies
    right of the pivot of the row above, and every entry above a pivot is
    reduced into [0, pivot). It reads each row once for the entry types and
    once up to its lead, and the rows above at the pivot column only. Code
    holding a Lattice relies on that shape unchecked.
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

    Rows that already form a canonical Hermite basis, such as the image of
    a full-rank lattice under an ordered map, are the unique canonical basis
    of their span and are kept as they are: the constructor validates them
    once and no Hermite form is computed. Any other input, a zero row
    included, goes through `hermite_normal_form`. A tuple of rows, such as
    `partitions._transport_rows` returns, reaches the constructor as it is;
    other rows are copied into tuples first. A tuple that holds rows of
    another type fails the constructor's check and is put in Hermite form.
    """
    mat = rows if type(rows) is tuple else tuple(map(tuple, rows))
    for row in mat:
        if len(row) != ambient_dim:
            raise ValueError("row length does not match the ambient dimension")
    if not mat or ambient_dim == 0:
        return Lattice(ambient_dim, ())
    try:
        return Lattice(ambient_dim, mat)
    except ValueError:
        pass
    hnf = hermite_normal_form(mat)
    return Lattice(ambient_dim, tuple(r for r in hnf if any(r)))


def is_multiplicative(lat: Lattice) -> bool:
    """Closure of the lattice under coordinatewise products.

    Checking products of basis rows is enough: general elements are integer
    combinations of rows and the product is bilinear in its two factors.
    When the basis has a pivot square (`intlinalg._pivot_square`), its span
    is the image of the square's span under a coordinate-copying map that
    is injective and respects products, so the square is tested instead
    (`_square_closed`). Any other basis has each product solved against the
    whole basis (`intlinalg.solve_in_row_span`), which assumes nothing
    about its columns.
    """
    rows = lat.basis
    square = _pivot_square(rows)
    if square is not None:
        return _square_closed(square)
    for i, u in enumerate(rows):
        for v in rows[i:]:
            if solve_in_row_span(rows, [a * b for a, b in zip(u, v)]) is None:
                return False
    return True


def _square_closed(square: Sequence[Sequence[int]]) -> bool:
    """Closure under products of the span of an upper-triangular square with
    nonzero diagonal.

    The product of rows i <= j vanishes left of column j, so it is formed
    and reduced against the rows j.. from column j on, by exact division at
    each diagonal entry; the span has full rank, so the product lies in it
    exactly when every division is exact. A row v = d*e_j, zero right of its
    diagonal entry, needs no test: u*v = u[j]*v is a multiple of it. The
    last row is always such a row.
    """
    for j in range(len(square) - 1):
        if not any(square[j][j + 1:]):
            continue
        # rows j.. from column j on: an upper-triangular square again
        tail = [row[j:] for row in square[j:]]
        v = tail[0]
        size = len(tail)
        for u in square[:j + 1]:
            w = [a * b for a, b in zip(u[j:], v)]
            for c, row in enumerate(tail):
                x = w[c]
                if x:
                    d = row[c]
                    if x % d:
                        return False
                    q = x // d
                    for t in range(c + 1, size):
                        w[t] -= q * row[t]
    return True


def torsion_size(lat: Lattice) -> int:
    """Order of the torsion subgroup of Z^ambient modulo the lattice.

    It is the gcd of the maximal minors of the basis: the diagonal product
    of its pivot square when it has one, as every multiplicative or
    full-rank basis does, else the product of its Smith invariant factors
    (`intlinalg._echelon_torsion`).
    """
    return _echelon_torsion(lat.basis)


def has_rigid_columns(lat: Lattice) -> bool:
    """Does the canonical basis have exactly rank-many distinct nonzero columns?

    Multiplicative lattices always do, and the distinct-column count of any
    basis matrix of such a lattice is invariant under integer row operations.
    That count is the rank exactly when the basis has a pivot square
    (`intlinalg._pivot_square`). Raises on non-multiplicative input since
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
