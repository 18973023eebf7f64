"""Sublattices of Z^n and the coordinatewise product structure.

A Lattice is stored by its canonical Hermite basis with zero rows dropped, so
two objects are equal exactly when they describe the same subgroup of Z^n.
The multiplicative notions live here: closure of the row span under the
coordinatewise (Hadamard) product, torsion of the quotient, and the column
counting that rigid multiplicative bases exhibit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

from .intlinalg import (
    IntMatrix,
    _pivot_columns,
    _solve,
    hermite_normal_form,
    int_matrix,
    smith_normal_form,
    solve_in_row_span,
)


@dataclass(frozen=True)
class Lattice:
    """A subgroup of Z^ambient_dim given by its canonical Hermite basis.

    basis holds only the nonzero rows; the zero lattice has an empty basis.
    The degenerate ambient_dim 0 lattice is allowed and counts as full rank.
    """

    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.ambient_dim, int) or self.ambient_dim < 0:
            raise ValueError("ambient_dim must be a nonnegative integer")
        if not isinstance(self.basis, tuple):
            raise ValueError("basis must be a tuple of rows")
        last_pivot = -1
        for row in self.basis:
            if not isinstance(row, tuple) or len(row) != self.ambient_dim:
                raise ValueError("basis rows must match the ambient dimension")
            lead = next((j for j, x in enumerate(row) if x != 0), None)
            if lead is None:
                raise ValueError("basis may not contain zero rows")
            if lead <= last_pivot or row[lead] <= 0:
                raise ValueError("basis is not in canonical Hermite form")
            last_pivot = lead
        # entries above each pivot must already be reduced
        for i, row in enumerate(self.basis):
            lead = next(j for j, x in enumerate(row) if x != 0)
            for a in range(i):
                if not 0 <= self.basis[a][lead] < row[lead]:
                    raise ValueError("basis is not in canonical Hermite form")

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

    @classmethod
    def from_dict(cls, data: dict) -> "Lattice":
        lat = lattice_from_rows(data["ambient"], data["basis"])
        if lat.rank != data.get("rank", lat.rank):
            raise ValueError("rank field disagrees with the basis")
        return lat


def lattice_from_rows(ambient_dim: int, rows: Iterable[Sequence[int]]) -> Lattice:
    """Lattice spanned by the given rows; canonicalizes and drops zero rows."""
    mat = [tuple(row) for row in rows]
    for row in mat:
        if len(row) != ambient_dim:
            raise ValueError("row length does not match the ambient dimension")
    if not mat or ambient_dim == 0:
        return Lattice(ambient_dim, ())
    hnf = hermite_normal_form(mat)
    return Lattice(ambient_dim, tuple(r for r in hnf if any(r)))


def pointwise_product(v: Sequence[int], w: Sequence[int]) -> tuple[int, ...]:
    """Coordinatewise product of two vectors of equal length."""
    if len(v) != len(w):
        raise ValueError("vectors must have equal length")
    return tuple(a * b for a, b in zip(v, w))


def contains_vector(lat: Lattice, v: Sequence[int]) -> bool:
    """Is v an integer combination of the basis rows?"""
    if len(v) != lat.ambient_dim:
        raise ValueError("vector length does not match the ambient dimension")
    if not lat.basis:
        return not any(v)
    return solve_in_row_span(lat.basis, v) is not None

def is_multiplicative(lat: Lattice) -> bool:
    """Closure of the lattice under coordinatewise products.

    Checking products of basis rows is enough: general elements are integer
    combinations of rows and the product is bilinear in its two factors.
    """
    rows = lat.basis
    if not rows:
        return True
    # validated once here rather than once per product
    mat = int_matrix(rows)
    pivots = _pivot_columns(mat)
    for i in range(len(rows)):
        for j in range(i, len(rows)):
            prod_ij = pointwise_product(rows[i], rows[j])
            if _solve(mat, pivots, prod_ij) is None:
                return False
    return True


def torsion_size(lat: Lattice) -> int:
    """Order of the torsion subgroup of Z^ambient modulo the lattice."""
    if not lat.basis:
        return 1
    return prod(d for d in smith_normal_form(lat.basis) if d)


def distinct_nonzero_columns(lat: Lattice) -> int:
    """Number of distinct nonzero columns of the canonical basis."""
    if not lat.basis:
        return 0
    cols = {tuple(row[j] for row in lat.basis) for j in range(lat.ambient_dim)}
    cols.discard((0,) * lat.rank)
    return len(cols)


def has_rigid_columns(lat: Lattice) -> bool:
    """Does the canonical basis have exactly rank-many distinct nonzero columns?

    Multiplicative lattices always do, and the distinct-column count of any
    basis matrix of such a lattice is invariant under integer row operations.
    Raises on non-multiplicative input since the question is only meaningful
    there.
    """
    if not is_multiplicative(lat):
        raise ValueError("lattice is not multiplicative")
    return distinct_nonzero_columns(lat) == lat.rank


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
