"""Exact linear algebra over the integers and the rationals.

Vectors are tuples of ints or rationals; matrices are lists/tuples of row
vectors.  Everything here is small and dense: the polytopes in this library
live in dimension <= 10 or so, with at most a few hundred points, so the
plain O(n^3) algorithms are the right tool.

Every elimination runs on Python ints.  `common_denominator` and `scaled`
turn rational rows into integer ones (int rows pass as they are); `bareiss`
is the one Gauss-Jordan elimination, fraction-free (Bareiss 1968: every
intermediate entry is a minor of the input, so each division is exact), and
`primitive` divides out a gcd.  `rref`, `rank` and `nullspace` read their
results off the `bareiss` form: `rref` gives int rows over their least
common denominator, and the kernel basis is integer.  `extend_echelon`
reduces one row at a time, so a rank test can stop early; the hull calls it
and, for its first simplex only, `normal_vector`.  `determinants`, with
`det` its one-matrix case, takes one forward elimination per matrix.
"""

from __future__ import annotations

from math import gcd, lcm

from .rationals import Q


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def common_denominator(values):
    """Least common multiple of the denominators of ints and rationals."""
    return lcm(*(x.denominator for x in values))


def scaled(vec, d):
    """d * vec as ints, for d a multiple of every entry's denominator."""
    return tuple(x.numerator * (d // x.denominator) for x in vec)


def primitive(vec):
    """An integer vector divided by the gcd of its entries (zero stays zero)."""
    g = gcd(*vec)
    return tuple(a // g for a in vec) if g > 1 else tuple(vec)


def _integer_rows(rows):
    """Int rows as they are, other rows times their entries' common denominator."""
    return [row if all(type(x) is int for x in row) else scaled(row, common_denominator(row))
            for row in rows]


def bareiss(rows):
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Returns (nonzero rows, pivot columns): the pivot columns hold d times
    the identity, d being the last pivot, of either sign, and the rows
    divided by d are the RREF.  Each entry is a minor of the input, so the
    divisions by the previous pivot are exact.
    """
    mat = [list(r) for r in rows]
    m = len(mat)
    pivots = []
    prev = 1
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, m) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        top = mat[r]
        d = top[c]
        for i in range(m):
            if i != r:
                f = mat[i][c]
                mat[i] = [(d * x - f * y) // prev for x, y in zip(mat[i], top)]
        prev = d
        pivots.append(c)
        r += 1
        if r == m:
            break
    return [tuple(row) for row in mat[:r]], pivots


def rref(rows):
    """Reduced row echelon form over its least common denominator d > 0:
    (nonzero int rows, pivot columns), every pivot entry d, so the rows over
    d are the (unique) RREF.  The rows are scaled to integers, which keeps
    the row space, and the `bareiss` rows divided by their gcd with its
    last pivot, taken with that pivot's sign."""
    reduced, pivots = bareiss(_integer_rows(rows))
    d = reduced[-1][pivots[-1]] if pivots else 1
    g = gcd(d, *(x for row in reduced for x in row)) * (1 if d > 0 else -1)
    return ([tuple(x // g for x in row) for row in reduced] if g != 1 else reduced), pivots


def rank(rows) -> int:
    return len(bareiss(_integer_rows(rows))[1])


def nullspace(rows):
    """Integer basis of {x : A x = 0}, one vector per free column.

    From the `bareiss` form with last pivot d, the vector for a free column
    has d there and minus that column's entry of each row at the row's
    pivot: d times the canonical rref kernel vector.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = bareiss(_integer_rows(rows))
    return [_kernel_vector(reduced, pivots, free, ncols)
            for free in range(ncols) if free not in pivots]


def _kernel_vector(reduced, pivots, free, ncols):
    d = reduced[-1][pivots[-1]] if pivots else 1
    vec = [0] * ncols
    vec[free] = d
    for row, p in zip(reduced, pivots):
        vec[p] = -row[free]
    return tuple(vec)


def extend_echelon(echelon, row):
    """Reduce an integer row fraction-free against echelon, a list of
    (pivot column, primitive row) pairs each 0 at the earlier pivots; append
    it and return True if it is independent of them, else return False."""
    for c, e in echelon:
        f = row[c]
        if f:
            p = e[c]
            row = [p * x - f * y for x, y in zip(row, e)]
    c = next((j for j, x in enumerate(row) if x), None)
    if c is None:
        return False
    echelon.append((c, primitive(row)))
    return True


def normal_vector(rows):
    """Primitive integer generator of the kernel of an integer matrix with
    one more column than its rank, or None when the kernel is larger."""
    if not rows:
        return None
    ncols = len(rows[0])
    reduced, pivots = bareiss(rows)
    if len(pivots) != ncols - 1:
        return None
    free = next(c for c in range(ncols) if c not in pivots)
    return primitive(_kernel_vector(reduced, pivots, free, ncols))


def determinants(rows, selections):
    """det of the int rows at each selection's n indices, rows of n entries,
    by one forward fraction-free (Bareiss) elimination per selection: each
    step pivots on the first row with a nonzero leading entry, a swap
    flipping the sign, and drops that row and column, so the last pivot is
    the determinant.  Nothing is carried from one selection to the next."""
    out = []
    for selection in selections:
        mat, sign, prev = [rows[i] for i in selection], 1, 1
        while mat:
            k = next((i for i, row in enumerate(mat) if row[0]), None)
            if k is None:
                sign = 0
                break
            if k:
                mat[0], mat[k], sign = mat[k], mat[0], -sign
            top, p = mat[0][1:], mat[0][0]
            mat = [[(p * x - row[0] * y) // prev for x, y in zip(row[1:], top)]
                   for row in mat[1:]]
            prev = p
        out.append(sign * prev)
    return out


def det(rows):
    """Determinant, the one-matrix case of `determinants`: an int for int
    rows; rational rows are scaled to ints by their common denominator d
    first, and the result is divided by d^n."""
    ints = all(type(x) is int for row in rows for x in row)
    d = 1 if ints else common_denominator(x for row in rows for x in row)
    mat = rows if ints else [scaled(row, d) for row in rows]
    result = determinants(mat, [range(len(rows))])[0]
    return result if d == 1 else Q(result, d ** len(rows))


def integer_kernel(rows):
    """Basis of {x in Z^n : A x = 0} for an integer matrix A.

    Column-style Hermite reduction; the unimodular column operations are
    mirrored on an identity matrix whose surviving columns span the kernel.
    """
    if not rows:
        return []
    m, n = len(rows), len(rows[0])
    cols = [[rows[i][j] for i in range(m)] for j in range(n)]
    u = [[1 if i == j else 0 for i in range(n)] for j in range(n)]  # u[j] tracks col j
    lead = 0
    for r in range(m):
        while True:
            nz = [j for j in range(lead, n) if cols[j][r] != 0]
            if not nz:
                break
            j0 = min(nz, key=lambda j: abs(cols[j][r]))
            cols[lead], cols[j0] = cols[j0], cols[lead]
            u[lead], u[j0] = u[j0], u[lead]
            done = True
            p = cols[lead][r]
            for j in range(lead + 1, n):
                if cols[j][r] != 0:
                    t = cols[j][r] // p
                    cols[j] = [a - t * b for a, b in zip(cols[j], cols[lead])]
                    u[j] = [a - t * b for a, b in zip(u[j], u[lead])]
                    if cols[j][r] != 0:
                        done = False
            if done:
                lead += 1
                break
    return [tuple(col) for col in u[lead:]]
