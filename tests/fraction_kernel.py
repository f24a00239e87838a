"""The `Fraction` reference kernel that property tests compare the library
against.

Gauss-Jordan elimination, kernel bases and determinants over Q, written
without `horoindex.linalg`, so no oracle imports the code it checks.
"""

from math import gcd, lcm

from horoindex import Q

ZERO, ONE = Q(0), Q(1)


def dot(u, v):
    s = ZERO
    for a, b in zip(u, v):
        s += a * b
    return s


def rref(rows):
    """Reduced row echelon form over Q: (list of nonzero rows, pivot columns)."""
    mat = [[Q(x) for x in r] for r in rows]
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


def nullspace(rows):
    """Canonical rational basis of {x : A x = 0}: 1 at a free column."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for row, p in zip(reduced, pivots):
            vec[p] = -row[free]
        basis.append(tuple(vec))
    return basis


def solve(rows, rhs):
    """A solution of A x = b with free variables 0, or None."""
    if not rows:
        return ()
    ncols = len(rows[0])
    reduced, pivots = rref([tuple(r) + (b,) for r, b in zip(rows, rhs)])
    sol = [ZERO] * ncols
    for row, p in zip(reduced, pivots):
        if p == ncols:
            return None
        sol[p] = row[-1]
    return tuple(sol)


def clear_denominators(vec):
    """A rational vector scaled to a primitive integer vector (same direction)."""
    d = lcm(*(Q(x).denominator for x in vec))
    ints = [int(Q(x) * d) for x in vec]
    g = gcd(*ints)
    return tuple(a // g for a in ints) if g > 1 else tuple(ints)


def fraction_det(rows):
    n = len(rows)
    mat = [list(r) for r in rows]
    result = ONE
    for c in range(n):
        pivot = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if pivot is None:
            return ZERO
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            result = -result
        result *= mat[c][c]
        inv = ONE / mat[c][c]
        for i in range(c + 1, n):
            if mat[i][c] != 0:
                f = mat[i][c] * inv
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[c])]
    return result
