"""Exact linear algebra over the rationals and the integers.

Vectors are tuples of rationals (or ints); matrices are lists/tuples of row
vectors.  Everything here is small and dense: the polytopes in this library
live in dimension <= 10 or so, with at most a few hundred points, so the
plain O(n^3) algorithms are the right tool.
"""

from __future__ import annotations

from math import gcd

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


def det(rows):
    """Determinant by fraction-free-ish Gaussian elimination over Q."""
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


def clear_denominators(vec):
    """Scale a rational vector to a primitive integer vector (same direction)."""
    qs = [Q(x) for x in vec]
    lcm = 1
    for q in qs:
        d = q.denominator
        lcm = lcm // gcd(lcm, int(d)) * int(d)
    ints = [int(q.numerator) * (lcm // int(q.denominator)) for q in qs]
    g = 0
    for a in ints:
        g = gcd(g, abs(a))
    if g > 1:
        ints = [a // g for a in ints]
    return tuple(ints)


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
