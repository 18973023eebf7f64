"""Exact linear algebra over the integers.

Matrices are tuples of tuples of Python ints, so nothing can wrap. The
row-style Hermite normal form gives a canonical basis of a row span;
`_in_span` tests membership in one by exact division, which serves
`enumeration.count_unital`'s test for (1, ..., 1), as the closure test
reduces its products itself (`lattice._square_closed`); the Smith normal
form gives the torsion of rows with no pivot square. No package code
calls `solve_in_row_span`.
"""

from __future__ import annotations

from math import gcd
from typing import Optional, Sequence

IntMatrix = tuple[tuple[int, ...], ...]


def int_matrix(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """Validate and freeze a rectangular integer matrix with rows, cols >= 1."""
    frozen = tuple(tuple(row) for row in rows)
    if not frozen or not frozen[0]:
        raise ValueError("matrix needs at least one row and one column")
    width = len(frozen[0])
    for row in frozen:
        if len(row) != width:
            raise ValueError("ragged matrix")
        for x in row:
            # bool passes isinstance(int) but is never a legitimate entry
            if type(x) is not int:
                raise ValueError(f"non-integer entry {x!r}")
    return frozen


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with g = a*x + b*y and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _pivot_down(work: list[list[int]], top: int, col: int) -> bool:
    """Make work[top] the only row from top down that is non-zero in col.

    Unimodular operations on rows top.. only: a row non-zero in col is
    swapped up to top and every row below is cleared by gcd steps, leaving
    the column's gcd, up to sign, at work[top][col]. False, with nothing
    changed, when the column is zero from top down.
    """
    nrows = len(work)
    piv = None
    for i in range(top, nrows):
        if work[i][col] != 0:
            piv = i
            break
    if piv is None:
        return False
    if piv != top:
        work[top], work[piv] = work[piv], work[top]
    for i in range(top + 1, nrows):
        if work[i][col] == 0:
            continue
        a, b = work[top][col], work[i][col]
        if b % a == 0:
            q = b // a
            work[i] = [x - q * y for x, y in zip(work[i], work[top])]
        else:
            g, x, y = _xgcd(a, b)
            p, q = a // g, b // g
            rt = [x * u + y * v for u, v in zip(work[top], work[i])]
            ri = [-q * u + p * v for u, v in zip(work[top], work[i])]
            work[top], work[i] = rt, ri
    return True


def hermite_normal_form(m: Sequence[Sequence[int]]) -> IntMatrix:
    """Canonical row-style Hermite normal form of an integer matrix.

    The unique basis of the input's row span with positive pivots, pivot
    columns strictly increasing down the rows, every entry above a pivot in
    [0, pivot) and zero rows at the bottom. An all-zero input comes back
    unchanged.
    """
    mat = int_matrix(m)
    work = [list(row) for row in mat]
    top = 0
    for col in range(len(mat[0])):
        if not _pivot_down(work, top, col):
            continue
        if work[top][col] < 0:
            work[top] = [-x for x in work[top]]
        d = work[top][col]
        for i in range(top):
            q = work[i][col] // d
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], work[top])]
        top += 1
    return tuple(tuple(row) for row in work)


def smith_normal_form(m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Diagonal of the Smith normal form, as nonnegative invariant factors.

    Returns min(rows, cols) values d_1 | d_2 | ... with zeros past the rank;
    the product of the nonzero ones is the order of the torsion subgroup of
    Z^cols modulo the row span. `_pivot_down` brings the matrix, then its
    transpose, and so on, to echelon form until it is diagonal: each pass
    leaves a gcd of the first column in the corner, which only shrinks until
    its row and column are clear. Then diag(gcd, lcm) replaces diag(a, b).
    """
    work = [list(row) for row in int_matrix(m)]
    while True:
        top = 0
        for col in range(len(work[0])):
            if _pivot_down(work, top, col):
                top += 1
        work = [list(col) for col in zip(*work)]
        if not any(x for i, row in enumerate(work)
                   for j, x in enumerate(row) if i != j):
            break
    diag = [abs(work[i][i]) for i in range(min(len(work), len(work[0])))]
    for i, a in enumerate(diag):
        for j in range(i + 1, len(diag)):
            g = gcd(a, diag[j])
            if g:
                a, diag[j] = g, a // g * diag[j]
        diag[i] = a
    return tuple(diag)


def solve_in_row_span(h: Sequence[Sequence[int]], v: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Integer coefficients c with c . h = v, or None when no such c exists.

    h must be a Hermite normal form with independent nonzero rows; c has one
    coefficient per row of h, zero on zero rows, and is unique. Found down
    the pivots by exact division, in the integers throughout.
    """
    mat = int_matrix(h)
    ncols = len(mat[0])
    if len(v) != ncols:
        raise ValueError("vector length does not match matrix width")
    residual = list(v)
    coeffs = [0] * len(mat)
    for i, col in _pivot_columns(mat):
        x = residual[col]
        if x == 0:
            continue
        d = mat[i][col]
        if x % d != 0:
            return None
        q = x // d
        coeffs[i] = q
        row = mat[i]
        for j in range(col, ncols):
            residual[j] -= q * row[j]
    if any(residual):
        return None
    return tuple(coeffs)


def _in_span(hnf: Sequence[Sequence[int]], pivots: Sequence[int],
             p: list[int], ambient: int) -> bool:
    """Membership of p in the row span of a Hermite basis, by exact division.

    Row i of hnf pivots at column pivots[i], and rows and p are ambient
    long. Nothing is validated and p is not changed.
    """
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


def _pivot_columns(mat: IntMatrix) -> list[tuple[int, int]]:
    """(row, pivot column) pairs of a Hermite normal form; validates the shape."""
    out: list[tuple[int, int]] = []
    last = -1
    seen_zero = False
    for i, row in enumerate(mat):
        lead = next((j for j, x in enumerate(row) if x != 0), None)
        if lead is None:
            seen_zero = True
            continue
        if seen_zero or lead <= last or row[lead] < 0:
            raise ValueError("matrix is not in Hermite normal form")
        out.append((i, lead))
        last = lead
    return out
