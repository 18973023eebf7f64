"""Independent reference implementations used as test oracles.

Everything here is deliberately written with different algorithms than the
package under test: determinants are fraction-free Bareiss, membership goes
through rational Gaussian elimination, closure under products through
Cramer's rule on one invertible column block, torsion is a gcd of maximal
minors, Stirling numbers come from inclusion-exclusion, and the full-rank
lattice family is enumerated in lower-triangular canonical form. Nothing in
this module imports the package.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def bareiss_det(m):
    """Determinant of a square integer matrix by fraction-free elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(r) for r in m]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for j in range(i + 1, n):
                if a[j][i] != 0:
                    a[i], a[j] = a[j], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for j in range(i + 1, n):
            for c in range(i + 1, n):
                a[j][c] = (a[j][c] * a[i][i] - a[j][i] * a[i][c]) // prev
            a[j][i] = 0
        prev = a[i][i]
    return sign * a[n - 1][n - 1]


def rational_coefficients(rows, v):
    """Unique rational c with c . rows = v, or None if v is outside the Q-span.

    Requires the rows to be linearly independent; raises otherwise.
    """
    m = len(rows)
    if m == 0:
        return () if all(x == 0 for x in v) else None
    n = len(rows[0])
    aug = [[Fraction(rows[i][j]) for i in range(m)] + [Fraction(v[j])]
           for j in range(n)]
    pivots = []
    at = 0
    for col in range(m):
        sel = None
        for rr in range(at, n):
            if aug[rr][col] != 0:
                sel = rr
                break
        if sel is None:
            continue
        aug[at], aug[sel] = aug[sel], aug[at]
        pv = aug[at][col]
        aug[at] = [x / pv for x in aug[at]]
        for rr in range(n):
            if rr != at and aug[rr][col] != 0:
                f = aug[rr][col]
                aug[rr] = [x - f * y for x, y in zip(aug[rr], aug[at])]
        pivots.append(col)
        at += 1
    if len(pivots) != m:
        raise ValueError("reference solver needs independent rows")
    for rr in range(at, n):
        if aug[rr][m] != 0:
            return None
    coeffs = [Fraction(0)] * m
    for idx, col in enumerate(pivots):
        coeffs[col] = aug[idx][m]
    return tuple(coeffs)


def int_membership(rows, v):
    """Is v an integer combination of the (independent) rows?"""
    c = rational_coefficients(rows, v)
    return c is not None and all(x.denominator == 1 for x in c)


def rational_rank(rows):
    if not rows:
        return 0
    n = len(rows[0])
    work = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(n):
        sel = None
        for rr in range(rank, len(work)):
            if work[rr][col] != 0:
                sel = rr
                break
        if sel is None:
            continue
        work[rank], work[sel] = work[sel], work[rank]
        pv = work[rank][col]
        work[rank] = [x / pv for x in work[rank]]
        for rr in range(len(work)):
            if rr != rank and work[rr][col] != 0:
                f = work[rr][col]
                work[rr] = [x - f * y for x, y in zip(work[rr], work[rank])]
        rank += 1
    return rank


def nonzero_block(rows):
    """(cols, block, D) for the first block of columns, in lexicographic
    order, on which the m >= 1 rows have a nonzero determinant D, or None
    when there is none, that is, when the rows are dependent."""
    for cols in itertools.combinations(range(len(rows[0])), len(rows)):
        block = [[r[j] for j in cols] for r in rows]
        det = bareiss_det(block)
        if det:
            return cols, block, det
    return None


def is_mult_ref(rows):
    """Is the row span closed under coordinatewise products? Rows must be a basis.

    The first block of columns on which the rows have a nonzero determinant
    D (`nonzero_block`) fixes the coefficients c of any vector in their
    Q-span. By Cramer's rule on the block, c_i is D_i / D, where D_i is the
    block's determinant with row i replaced by the product's entries there;
    the product is an integer combination exactly when every D_i is a
    multiple of D and those integer c reproduce it on every column.
    """
    m = len(rows)
    if m == 0:
        return True
    found = nonzero_block(rows)
    if found is None:
        raise ValueError("reference closure test needs independent rows")
    cols, block, det = found
    for a in range(m):
        for b in range(a, m):
            prod = [x * y for x, y in zip(rows[a], rows[b])]
            on_block = [prod[j] for j in cols]
            coeffs = []
            for i in range(m):
                minor = block[:i] + [on_block] + block[i + 1:]
                q, rem = divmod(bareiss_det(minor), det)
                if rem:
                    return False
                coeffs.append(q)
            if [sum(c * r[j] for c, r in zip(coeffs, rows))
                    for j in range(len(prod))] != prod:
                return False
    return True


def torsion_ref(rows):
    """Torsion size of Z^n modulo the row span: gcd of all maximal minors.

    Rows must be independent (a basis of the span).
    """
    m = len(rows)
    if m == 0:
        return 1
    n = len(rows[0])
    g = 0
    for cols in itertools.combinations(range(n), m):
        sub = [[rows[i][j] for j in cols] for i in range(m)]
        g = math.gcd(g, bareiss_det(sub))
    if g == 0:
        raise ValueError("rows are dependent")
    return g


def stirling_ref(u, v):
    """Stirling subset number by inclusion-exclusion."""
    if u < 0 or v < 0:
        raise ValueError("negative arguments")
    if v == 0:
        return 1 if u == 0 else 0
    if v > u:
        return 0
    total = 0
    for j in range(v + 1):
        total += (-1) ** j * math.comb(v, j) * (v - j) ** u
    return total // math.factorial(v)


def partitions_ref(ground_size, block_count):
    """All partitions of {0..ground_size-1} into block_count blocks.

    Built by placing each element into an existing block or a fresh one, so
    blocks come out sorted and ordered by their minimum.
    """
    out = []

    def place(e, acc):
        if e == ground_size:
            if len(acc) == block_count:
                out.append(tuple(tuple(b) for b in acc))
            return
        if len(acc) + (ground_size - e) < block_count:
            return
        for b in acc:
            b.append(e)
            place(e + 1, acc)
            b.pop()
        if len(acc) < block_count:
            acc.append([e])
            place(e + 1, acc)
            acc.pop()

    place(0, [])
    return out


def is_growth_string(assignment):
    """Whether an assignment is a restricted-growth string, the ghost 0 put
    in front: each entry is at most one more than the largest before it."""
    top = 0
    for a in assignment:
        if a > top + 1:
            return False
        top = max(top, a)
    return True


def divisors(x):
    return [d for d in range(1, x + 1) if x % d == 0]


def ref_full_rank_lattices(n, index):
    """All full-rank sublattices of Z^n of the given index.

    Returned as lower-triangular canonical bases: positive diagonal with
    product = index, and each below-diagonal entry (i, j) reduced modulo the
    diagonal entry of its column j. Every sublattice appears exactly once.
    """
    mats = []

    def diag_rec(i, rem, acc):
        if i == n:
            if rem == 1:
                build(acc)
            return
        for d in divisors(rem):
            diag_rec(i + 1, rem // d, acc + [d])

    def build(ds):
        slots = [(i, j) for i in range(n) for j in range(i)]
        ranges = [range(ds[j]) for (_, j) in slots]
        for combo in itertools.product(*ranges):
            mat = [[0] * n for _ in range(n)]
            for i in range(n):
                mat[i][i] = ds[i]
            for (i, j), val in zip(slots, combo):
                mat[i][j] = val
            mats.append(tuple(tuple(row) for row in mat))

    diag_rec(0, index, [])
    return mats


def ref_count_full_rank_mult(n, index):
    """Number of full-rank multiplicative sublattices of Z^n of the given index."""
    if n == 0:
        return 1 if index == 1 else 0
    return sum(1 for m in ref_full_rank_lattices(n, index) if is_mult_ref(m))


def ref_count_unital(n, index):
    """Number of index-`index` subrings of Z^n containing the all-ones vector."""
    ones = (1,) * n
    count = 0
    for m in ref_full_rank_lattices(n, index):
        if is_mult_ref(m) and int_membership(m, ones):
            count += 1
    return count


def ref_hnf(rows):
    """Row-style Hermite normal form, written independently of the package.

    Column-major sweep with explicit Bezout steps; pivots positive, entries
    above each pivot reduced into [0, pivot), zero rows at the bottom.
    """
    work = [list(r) for r in rows]
    if not work:
        return ()
    nrows, ncols = len(work), len(work[0])
    top = 0
    for col in range(ncols):
        piv = None
        for i in range(top, nrows):
            if work[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[top], work[piv] = work[piv], work[top]
        for i in range(top + 1, nrows):
            while work[i][col] != 0:
                a, b = work[top][col], work[i][col]
                if abs(b) < abs(a):
                    work[top], work[i] = work[i], work[top]
                    continue
                q = b // a
                work[i] = [x - q * y for x, y in zip(work[i], work[top])]
        if work[top][col] < 0:
            work[top] = [-x for x in work[top]]
        for i in range(top):
            q = work[i][col] // work[top][col]
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], work[top])]
        top += 1
    return tuple(tuple(r) for r in work)


def ref_canonical_key(rows, ambient):
    """Dedup key for a row span: nonzero rows of the reference HNF."""
    mat = [list(r) + [0] * (ambient - len(r)) for r in rows]
    hnf = ref_hnf(mat)
    return tuple(r for r in hnf if any(r))


def ref_corank_scan(ambient, corank, torsion, bound):
    """Unpruned scan over echelon-shaped bases, for cross-checking the engine.

    Visits every (ambient-corank) x ambient matrix with row i supported on
    columns 0..i+corank and entries in [0, bound], then filters by rank,
    multiplicativity and torsion. Returns the set of dedup keys.
    """
    n = ambient - corank
    if n == 0:
        return {()} if torsion == 1 else set()
    widths = [min(ambient, i + 1 + corank) for i in range(n)]
    rowsets = [list(itertools.product(range(bound + 1), repeat=w)) for w in widths]
    found = set()
    for rows in itertools.product(*rowsets):
        mat = [list(row) + [0] * (ambient - len(row)) for row in rows]
        if nonzero_block(mat) is None:
            continue
        if not is_mult_ref(mat):
            continue
        if torsion_ref(mat) != torsion:
            continue
        found.add(ref_canonical_key(mat, ambient))
    return found


# ---------------------------------------------------------------------------
# seeded inputs


def copied_square_rows(rng, ambient, rank, top):
    """A canonical Hermite basis whose columns copy or zero a triangular square.

    A random upper-triangular rank x rank square, pivots in [1, top] and
    entries above each pivot in [0, pivot), goes on rank random pivot
    columns; every other column is zero or a copy of a pivot column to its
    left. The basis has exactly rank distinct nonzero columns.
    """
    square = [[0] * rank for _ in range(rank)]
    for c in range(rank):
        square[c][c] = rng.randint(1, top)
        for i in range(c):
            square[i][c] = rng.randrange(square[c][c])
    pivots = sorted(rng.sample(range(ambient), rank))
    labels, used = [], 0
    for c in range(ambient):
        if used < rank and c == pivots[used]:
            used += 1
            labels.append(used)
        else:
            labels.append(rng.randint(0, used))
    return [[square[i][t - 1] if t else 0 for t in labels] for i in range(rank)]


def echelon_samples(rng, count):
    """The zero lattice of each ambient 0-6, then count seeded canonical
    bases in those ambients, as (ambient, rows).

    Three in five are copied squares (`copied_square_rows`), many of them
    not multiplicative; the rest are the Hermite forms of random
    small rows, which mostly have more distinct nonzero columns than rows.
    """
    for ambient in range(7):
        yield ambient, []
    for _ in range(count):
        ambient = rng.randint(1, 6)
        rank = rng.randint(1, ambient)
        if rng.random() < 0.6:
            top = rng.choice((2, 3, 4, 6, 8, 12))
            yield ambient, copied_square_rows(rng, ambient, rank, top)
        else:
            rows = [[rng.randint(-3, 3) for _ in range(ambient)]
                    for _ in range(rank)]
            yield ambient, [list(r) for r in ref_hnf(rows) if any(r)]
