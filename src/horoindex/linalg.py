"""Exact linear algebra over the integers and the rationals.

Vectors are tuples of ints or rationals; matrices are lists/tuples of row
vectors.  Everything here is small and dense: the polytopes in this library
live in dimension <= 10 or so, with at most a few hundred points, so the
plain O(n^3) algorithms are the right tool.

The geometry kernel runs on Python ints.  `common_denominator` and `scaled`
turn rational points into integer ones once; `bareiss`, `normal_vector`
and `det` then eliminate fraction-free (Bareiss 1968: every intermediate
entry is a minor of the input, so each division is exact), and `primitive`
divides out a gcd.  `rref`, `solve` and `nullspace` work over the
rationals, for rational results such as span bases and lattice
coordinates.
"""

from __future__ import annotations

from math import gcd, lcm

from .rationals import Q, ZERO, ONE


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, v):
    return tuple(c * a for a in v)


def dot(u, v):
    s = ZERO
    for a, b in zip(u, v):
        s += a * b
    return s


def rref(rows):
    """Reduced row echelon form.  Returns (list of nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = ONE / mat[r][c]
        mat[r] = [inv * x for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def rank(rows) -> int:
    return len(rref(rows)[0])


def solve(rows, rhs):
    """Solve A x = b exactly.  Returns a solution tuple or None.

    Free variables (if any) are set to zero, so the result is deterministic.
    """
    mat = [list(r) + [b] for r, b in zip(rows, rhs)]
    if not mat:
        return ()
    ncols = len(rows[0])
    reduced, pivots = rref(mat)
    sol = [ZERO] * ncols
    for row, p in zip(reduced, pivots):
        if p == ncols:  # 0 = nonzero: inconsistent
            return None
        sol[p] = row[-1]
    return tuple(sol)


def nullspace(rows):
    """Basis of {x : A x = 0} as a list of tuples (canonical, from rref)."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for row, p in zip(reduced, pivots):
            vec[p] = -row[free]
        basis.append(tuple(vec))
    return basis


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


def bareiss(rows):
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Returns (nonzero rows, pivot columns), like `rref`, except that the
    pivot columns hold d times the identity rather than the identity, d
    being the last pivot: rref is these rows divided by d.  Each entry is a
    minor of the input, so the divisions by the previous pivot are exact.
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


def normal_vector(rows):
    """Primitive integer generator of the kernel of an integer matrix with
    one more column than its rank, or None when the kernel is larger."""
    reduced, pivots = bareiss(rows)
    ncols = len(rows[0])
    if len(pivots) != ncols - 1:
        return None
    free = next(c for c in range(ncols) if c not in pivots)
    d = reduced[-1][pivots[-1]] if reduced else 1
    vec = [0] * ncols
    vec[free] = d
    for row, p in zip(reduced, pivots):
        vec[p] = -row[free]
    return primitive(vec)


def det(rows):
    """Determinant by Bareiss's fraction-free elimination.

    Integer rows give an int.  Rational rows are scaled to integers by
    their common denominator d first, and the result is divided by d^n.
    """
    n = len(rows)
    d = common_denominator(x for row in rows for x in row)
    mat = [list(scaled(row, d)) for row in rows]
    sign, prev = 1, 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if mat[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            sign = -sign
        top = mat[c]
        p = top[c]
        for i in range(c + 1, n):
            row = mat[i]
            f = row[c]
            mat[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    result = sign * prev
    return result if d == 1 else Q(result, d ** n)


def clear_denominators(vec):
    """Scale a rational vector to a primitive integer vector (same direction)."""
    return primitive(scaled(vec, common_denominator(vec)))


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
