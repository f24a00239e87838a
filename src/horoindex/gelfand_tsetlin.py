"""Gelfand-Tsetlin polytopes for GL(n) and the Newton-polytope lift.

Pattern coordinates: rows n-1 down to 1, row-major with the top row (length
n-1) first, so a pattern for GL(n) has n(n-1)/2 coordinates.  Row n is the
weight itself.  The defining inequalities interlace consecutive rows:

    x[r+1][c] >= x[r][c] >= x[r+1][c+1].

So the GT polytope is a marked order polytope, the weight row being marked
(Ardila-Bliem-Salazar, JCTA 2011).  Its vertices are the patterns whose
entries each equal one of their two upper neighbours: a point is a vertex
exactly when every block of entries linked by tight relations reaches the
weight row (Pegel, Order 2018), and as rows are non-increasing, an entry
strictly between its upper neighbours is linked to nothing above its row.
So vertices copy weight entries: they are int tuples for an int weight,
and the vertices for the weight w / d are those for w divided by d.
`gt_polytope` is built from them and the interlacing rows as a lift is,
with no hull: a plain `Polytope`.  Every weight is validated by one check,
`_check_weight` (nonempty, non-increasing; int entries stay ints), and
`gt_lattice_count` also insists on integral entries.

The map weight -> polytope is Minkowski-linear on the dominant cone, the
number of integral patterns equals dim V_lambda, and the (span-relative)
volume equals the top homogeneous component of the dimension polynomial.

The lift of a polytope D inside a chamber face is the polytope fibered over
D whose fiber at lambda is the GT polytope of lambda, written in the
coordinates (face coordinates, free pattern entries).  Pattern entries that
the face's block structure pins to a block value are dropped; this is the
projection convention that keeps degenerate fibers full-dimensional in
their own coordinate subspace.  A lift is built without a hull, from its
vertices and its inequalities (`newton_lift`); the fiber vertices over a
point are cached per (face, point), so lifts over shared base vertices
enumerate each fiber once.
"""

from __future__ import annotations

import itertools
from functools import cache, lru_cache

from .errors import DomainError
from .linalg import common_denominator, scaled
from .polytopes import Polytope, _from_planes
from .rationals import Q, exact_point, format_point, is_integral
from .weyl import ChamberFace, GroupDescriptor


def pattern_positions(n: int):
    """Coordinate order of pattern entries: (row, col), rows n-1 .. 1, cols 1 .. row."""
    return [(r, c) for r in range(n - 1, 0, -1) for c in range(1, r + 1)]


def pattern_dim(n: int) -> int:
    return n * (n - 1) // 2


def _check_weight(weight):
    weight = tuple(x if isinstance(x, int) else Q(x) for x in weight)
    if not weight:
        raise DomainError("a GL(n) weight needs n >= 1 entries")
    if any(weight[i] < weight[i + 1] for i in range(len(weight) - 1)):
        raise DomainError(f"weight {format_point(weight)} is not dominant (non-increasing)")
    return weight


def _gt_vertices(weight):
    """Sorted vertices of GT(weight), for a dominant weight: each
    entry of the next row is row[i] or row[i+1], so rows interlace."""
    def patterns(row):
        if len(row) == 1:
            return [()]
        return [nxt + rest
                for nxt in set(itertools.product(*zip(row, row[1:])))
                for rest in patterns(nxt)]

    return sorted(patterns(weight))


@lru_cache(maxsize=None)
def gt_polytope(weight) -> Polytope:
    """The Gelfand-Tsetlin polytope of a dominant weight (rational allowed),
    built as a lift is, with no hull: `_from_planes` of the vertices of the
    weight w scaled by its common denominator, and the full chamber's
    interlacing rows at w, a.(w, x) <= 0 as a[n:].x <= -a[:n].w."""
    weight = _check_weight(weight)
    n = len(weight)
    if n == 1:
        # no pattern coordinates; callers detect this via pattern_dim(1) == 0
        raise DomainError("GL(1) has an empty pattern space")
    d = common_denominator(weight)
    w = scaled(weight, d)
    rows = interlacing_rows(ChamberFace.full_chamber(GroupDescriptor((n,))))
    return _from_planes(_gt_vertices(w), d,
                        [(a[n:], -sum(x * y for x, y in zip(a[:n], w))) for a, _ in rows])


def gt_lattice_count(weight) -> int:
    """Number of integral Gelfand-Tsetlin patterns = dim V_lambda, for a
    dominant integral weight."""
    weight = _check_weight(weight)
    if not all(is_integral(x) for x in weight):
        raise DomainError(f"weight {format_point(weight)} is not integral")
    weight = tuple(x.numerator for x in weight)

    @cache  # rows below distinct patterns repeat: count each row once per call
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
    return [list(free) for free in _free_entries(face)]


@lru_cache(maxsize=None)
def _free_entries(face: ChamberFace):
    """`free_pattern_entries` as a tuple of tuples, computed once per face."""
    return tuple(tuple(i for i, (r, c) in enumerate(pattern_positions(n))
                       if cols[c - 1] != cols[c + n - r - 1])
                 for cols in face.columns for n in [len(cols)])


def fiber_vertices(face: ChamberFace, face_coords):
    """Vertices of the GT fiber over a point of the face, projected to the
    free pattern coordinates (all GL factors concatenated), as a tuple.

    Cached per (face, point) on the point with its integral entries as
    ints: `Q(2) == 2` and both hash alike, so a cache keyed on the point as
    given would hand `Fraction`s to a later int caller."""
    return _fiber_vertices(face, exact_point(face_coords, "face coordinates"))


@lru_cache(maxsize=4096)
def _fiber_vertices(face: ChamberFace, face_coords):
    if len(face_coords) != face.dim:
        raise DomainError("face coordinate length mismatch")
    per_factor = []
    for idx, cols in zip(_free_entries(face), face.columns):
        vs = _gt_vertices(_check_weight(tuple(face_coords[c] for c in cols)))
        per_factor.append(sorted({tuple(v[i] for i in idx) for v in vs}))
    return tuple(sum(combo, ()) for combo in itertools.product(*per_factor))


@lru_cache(maxsize=None)
def interlacing_rows(face: ChamberFace):
    """The interlacing relations of every GL factor as int half-spaces
    (a, 0), a.(c, x) <= 0, over face coordinates c and the free pattern
    entries x.  A weight entry and a pinned pattern entry read their
    block's face coordinate; a relation between two entries that read the
    same coordinate holds on the whole face and is left out."""
    free = _free_entries(face)
    width = face.dim + sum(map(len, free))
    rows, column = set(), itertools.count(face.dim)
    for cols, idx in zip(face.columns, free):
        n = len(cols)
        entry = {(n, c): cols[c - 1] for c in range(1, n + 1)}
        for i, (r, c) in enumerate(pattern_positions(n)):
            entry[r, c] = next(column) if i in idx else entry[n, c]
        for r, c in pattern_positions(n):  # x[r+1][c] >= x[r][c] >= x[r+1][c+1]
            for upper, lower in (((r + 1, c), (r, c)), ((r, c), (r + 1, c + 1))):
                if entry[upper] != entry[lower]:
                    a = [0] * width
                    a[entry[lower]], a[entry[upper]] = 1, -1
                    rows.add(tuple(a))
    return tuple((a, 0) for a in sorted(rows))


def newton_lift(face: ChamberFace, base: Polytope) -> Polytope:
    """The polytope fibered over `base` (in face coordinates) with GT fibers.

    Coordinates: face coordinates first, then the free pattern entries of
    each GL factor in order.  It is built from both of its descriptions,
    with no hull.  The fiber map is Minkowski-linear, so its vertices are
    those of the fibers over the base's vertices.  It is cut out of
    base x (pattern space) by the interlacing rows, so its facets are among
    those rows and the base's facets, n.(x - v0) <= b at the span pivots.
    """
    if base.ambient_dim != face.dim:
        raise DomainError("base polytope must live in face coordinates")
    points = []
    for v in base.points:
        if not face.face_contains_coords(v):
            vertex = format_point(Q(x, base.den) for x in v)
            raise DomainError(f"base vertex {vertex} is not inside the face")
        points += [v + w for w in fiber_vertices(face, v)]
    planes, v0 = list(interlacing_rows(face)), base.points[0]
    for n, b in base.facets:
        at = dict(zip(base.span_pivots, n))
        planes.append(([at.get(j, 0) for j in range(len(points[0]))],
                       base.den * b + sum(x * v0[j] for j, x in at.items())))
    return _from_planes(sorted(points), base.den, planes)
