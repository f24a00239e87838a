"""Gelfand-Tsetlin polytopes for GL(n) and the Newton-polytope lift.

Pattern coordinates: rows n-1 down to 1, row-major with the top row (length
n-1) first, so a pattern for GL(n) has n(n-1)/2 coordinates.  Row n is the
weight itself.  The defining inequalities interlace consecutive rows:

    x[r+1][c] >= x[r][c] >= x[r+1][c+1].

The map weight -> polytope is Minkowski-linear on the dominant cone, the
number of integral patterns equals dim V_lambda, and the (span-relative)
volume equals the top homogeneous component of the dimension polynomial.

The lift of a polytope D inside a chamber face is the polytope fibered over
D whose fiber at lambda is the GT polytope of lambda, written in the
coordinates (face coordinates, free pattern entries).  Pattern entries that
the face's block structure pins to a block value are dropped; this is the
projection convention that keeps degenerate fibers full-dimensional in
their own coordinate subspace.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .linalg import rank as mat_rank, solve
from .polytopes import Polytope, hull
from .rationals import Q
from .weyl import ChamberFace


def pattern_positions(n: int):
    """Coordinate order of pattern entries: (row, col), rows n-1 .. 1, cols 1 .. row."""
    return [(r, c) for r in range(n - 1, 0, -1) for c in range(1, r + 1)]


def pattern_dim(n: int) -> int:
    return n * (n - 1) // 2


def _check_weight(weight):
    weight = tuple(Q(x) for x in weight)
    if any(weight[i] < weight[i + 1] for i in range(len(weight) - 1)):
        raise DomainError(f"weight {weight} is not dominant (non-increasing)")
    return weight


def gt_inequalities(weight):
    """Interlacing system A x <= b over the pattern coordinates.

    Row n is the constant weight; every other entry is a variable.
    """
    weight = _check_weight(weight)
    n = len(weight)
    pos = pattern_positions(n)
    index = {rc: i for i, rc in enumerate(pos)}
    dim = len(pos)
    rows, rhs = [], []

    def add(coeffs, bound):
        rows.append(tuple(coeffs))
        rhs.append(bound)

    for r in range(n - 1, 0, -1):
        for c in range(1, r + 1):
            i = index[(r, c)]
            # upper neighbour x[r+1][c] >= x[r][c]
            coeffs = [0] * dim
            coeffs[i] = 1
            if r + 1 == n:
                add(coeffs, weight[c - 1])
            else:
                coeffs[index[(r + 1, c)]] = -1
                add(coeffs, Q(0))
            # lower neighbour x[r][c] >= x[r+1][c+1]
            coeffs = [0] * dim
            coeffs[i] = -1
            if r + 1 == n:
                add(coeffs, -weight[c])
            else:
                coeffs[index[(r + 1, c + 1)]] = 1
                add(coeffs, Q(0))
    return rows, rhs


def vertices_of_inequality_system(rows, rhs):
    """All vertices of {x : A x <= b} (the system must be bounded).

    Brute-force basis enumeration: every vertex is the unique solution of
    some full-rank subset of dim active constraints.  Exact and fine at the
    pattern dimensions this library works in (<= 6 for GL(4)).
    """
    dim = len(rows[0]) if rows else 0
    if dim == 0:
        return [()]
    seen = set()
    m = len(rows)
    for combo in itertools.combinations(range(m), dim):
        sub = [rows[i] for i in combo]
        if mat_rank(sub) != dim:
            continue
        point = solve(sub, [rhs[i] for i in combo])
        if point is None or point in seen:
            continue
        if all(sum(a * x for a, x in zip(rows[i], point)) <= rhs[i] for i in range(m)):
            seen.add(point)
    if not seen:
        raise DomainError("inequality system has no vertices (empty or unbounded)")
    return sorted(seen)


@dataclass(frozen=True)
class GTPolytope:
    polytope: Polytope
    weight: tuple

    @property
    def dim(self) -> int:
        return self.polytope.dim

    def contains_pattern(self, pattern) -> bool:
        rows, rhs = gt_inequalities(self.weight)
        pattern = tuple(Q(x) for x in pattern)
        return all(sum(a * x for a, x in zip(row, pattern)) <= b
                   for row, b in zip(rows, rhs))


@lru_cache(maxsize=None)
def gt_polytope(weight) -> GTPolytope:
    """The Gelfand-Tsetlin polytope of a dominant weight (rational allowed)."""
    weight = _check_weight(weight)
    n = len(weight)
    if n == 1:
        # no pattern coordinates; callers detect this via pattern_dim(1) == 0
        raise DomainError("GL(1) has an empty pattern space")
    rows, rhs = gt_inequalities(weight)
    verts = vertices_of_inequality_system(rows, rhs)
    return GTPolytope(hull(verts), weight)


def gt_lattice_count(weight) -> int:
    """Number of integral Gelfand-Tsetlin patterns = dim V_lambda."""
    weight = tuple(int(x) for x in weight)
    if any(weight[i] < weight[i + 1] for i in range(len(weight) - 1)):
        raise DomainError(f"weight {weight} is not dominant")

    def count(row):
        if len(row) == 1:
            return 1
        total = 0
        spans = [range(row[i + 1], row[i] + 1) for i in range(len(row) - 1)]
        for nxt in itertools.product(*spans):
            if all(nxt[i] >= nxt[i + 1] for i in range(len(nxt) - 1)):
                total += count(nxt)
        return total

    return count(weight)


def free_pattern_entries(face: ChamberFace):
    """Per GL factor, the pattern entries not pinned by the face's blocks.

    Entry (r, c) of a factor of size n ranges over [weight_{c+n-r}, weight_c]
    across the GT polytope, so it is pinned exactly when columns c and c+n-r
    share a block.  Returns a list (one per factor) of lists of positions
    into pattern_positions(n).
    """
    out = []
    for factor, n in enumerate(face.group.gl_factors):
        free = []
        for i, (r, c) in enumerate(pattern_positions(n)):
            lo_col = c + n - r  # 1-based
            if face.block_of_column(factor, c - 1) != face.block_of_column(factor, lo_col - 1):
                free.append(i)
        out.append(free)
    return out


def fiber_vertices(face: ChamberFace, face_coords):
    """Vertices of the GT fiber over a point of the face, projected to the
    free pattern coordinates (all GL factors concatenated)."""
    weight = face.expand(face_coords)
    free = free_pattern_entries(face)
    per_factor = []
    pos = 0
    for factor, n in enumerate(face.group.gl_factors):
        block = weight[pos:pos + n]
        pos += n
        if pattern_dim(n) == 0:
            per_factor.append([()])
            continue
        gt = gt_polytope(tuple(block))
        idx = free[factor]
        per_factor.append(sorted({tuple(v[i] for i in idx) for v in gt.polytope.vertices}))
    return [sum(combo, ()) for combo in itertools.product(*per_factor)]


def newton_lift(face: ChamberFace, base: Polytope) -> Polytope:
    """The polytope fibered over `base` (in face coordinates) with GT fibers.

    Coordinates: face coordinates first, then the free pattern entries of
    each GL factor in order.  The extreme points of the lift sit over the
    vertices of the base because the fiber map is Minkowski-linear, so the
    hull of vertex fibers is exact.
    """
    if base.ambient_dim != face.dim:
        raise DomainError("base polytope must live in face coordinates")
    points = []
    for v in base.vertices:
        if not face.face_contains_coords(v):
            raise DomainError(f"base vertex {v} is not inside the face")
        for w in fiber_vertices(face, v):
            points.append(tuple(v) + tuple(w))
    return hull(points)
