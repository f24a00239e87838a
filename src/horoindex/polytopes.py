"""Exact rational convex polytopes.

A Polytope stores its sorted extreme vertices times `den`, their least
common denominator, as int tuples `points`; (den, points) is canonical and
backs `==`, `hash` and the memo in `spaces`, and `vertices` reads it back
as rationals.  It also stores its span basis, facets and fan.
Degenerate (lower-dimensional) polytopes are first class: every volume or
integral is taken relative to the affine span, normalized to a caller-chosen
lattice.

The hull is computed by an exact incremental (beneath-beyond) algorithm on
triangulated boundary facets; dimensions here are small enough that
asymptotics are irrelevant, and determinism matters more: points are always
processed in lexicographic order and triangulations fan out from the
lexicographically smallest vertex, by vertex index, the same way in every
dimension: volumes and integrals need no low-dimensional case.

`hull` is the one place where rationals become ints: it rejects floats and
scales its points once by their common denominator.  `_hull`, which
`minkowski_sum`, `dilate` and `newton_lift` call on stored ints, finds the
span, facet planes, visibility and extreme vertices by fraction-free
elimination, and volumes take integer determinants.

Lattice points are enumerated by slices in lattice coordinates: all span
pivots but the last range over the bounding box, and the facet inequalities
give the last pivot's integer interval, so no point is tested for
membership.  They come out as int tuples whenever the lattice's offset is
integral.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import factorial, gcd, lcm
from operator import mul

from .errors import DomainError, check_length
from .lattices import AffineLattice
from .linalg import (bareiss, common_denominator, det, normal_vector,
                     primitive, rref, scaled, vsub)
from .rationals import Q, ZERO, is_integral


@dataclass(frozen=True, eq=False)
class Polytope:
    den: int                   # least common denominator of the vertices
    points: tuple              # sorted vertices times den, as int tuples
    span_basis: tuple          # rref basis of the direction space (rows)
    span_pivots: tuple         # pivot columns of span_basis
    facets: tuple              # ((integer normal, integer offset), ...) in span coords
    fan: tuple                 # triangulation: (dim+1)-tuples of vertex indices from 0

    @property
    def vertices(self):
        """Sorted tuple of the vertices, as tuples of rationals."""
        return tuple(tuple(Q(x, self.den) for x in p) for p in self.points)

    @property
    def ambient_dim(self) -> int:
        return len(self.points[0])

    @property
    def dim(self) -> int:
        return len(self.span_basis)

    @property
    def base(self):
        return tuple(Q(x, self.den) for x in self.points[0])

    def span_coordinates(self, point):
        """Coordinates of point in the affine span, or None if outside it."""
        check_length(point, self.ambient_dim)
        d = vsub(tuple(Q(x) for x in point), self.base)
        coords = tuple(d[p] for p in self.span_pivots)
        recon = [ZERO] * self.ambient_dim
        for c, row in zip(coords, self.span_basis):
            for i, x in enumerate(row):
                recon[i] += c * x
        if tuple(recon) != d:
            return None
        return coords

    def contains(self, point) -> bool:
        coords = self.span_coordinates(point)
        if coords is None:
            return False
        return all(sum(map(mul, n, coords)) <= b for n, b in self.facets)

    def __eq__(self, other):
        return (isinstance(other, Polytope) and self.den == other.den
                and self.points == other.points)

    def __hash__(self):
        return hash((self.den, self.points))

    def __repr__(self):
        return f"Polytope(dim={self.dim}, vertices={len(self.points)})"


def _hull_core(coords):
    """Incremental hull of full-dimensional integer coords (dim k >= 1,
    affine rank k).

    Returns (extreme indices sorted, merged facets, simplicial facets), where
    merged facets are (normal, offset, vertex indices) and simplicial facets
    (index tuple, normal, offset), each normal primitive and each plane
    n.x <= b on the hull.  In 1-D a facet is a point, with normal +-(1,).
    """
    k = len(coords[0])
    npts = len(coords)

    # initial simplex: greedy scan for k+1 affinely independent points
    simplex_idx = [0]
    basis_rows = []
    for i in range(1, npts):
        d = vsub(coords[i], coords[0])
        trial = basis_rows + [d]
        if len(bareiss(trial)[1]) > len(basis_rows):
            basis_rows.append(d)
            simplex_idx.append(i)
            if len(simplex_idx) == k + 1:
                break
    if len(simplex_idx) != k + 1:
        raise DomainError("point set is not full-dimensional in span coordinates")

    # the simplex's vertex sum is k+1 times an interior point
    inside = tuple(sum(coords[i][j] for i in simplex_idx) for j in range(k))

    def plane(verts):
        q0 = coords[verts[0]]
        n = normal_vector([vsub(coords[i], q0) for i in verts[1:]]) if k > 1 else (1,)
        if n is None:
            raise DomainError("degenerate facet hyperplane")
        b = sum(map(mul, n, q0))
        side = sum(map(mul, n, inside)) - (k + 1) * b
        if side > 0:
            return tuple(-x for x in n), -b
        if side == 0:
            raise DomainError("interior point on facet hyperplane")
        return n, b

    facets = {}
    for omit in simplex_idx:
        verts = tuple(sorted(i for i in simplex_idx if i != omit))
        facets[verts] = plane(verts)

    for idx in range(npts):
        if idx in simplex_idx:
            continue
        p = coords[idx]
        visible = [verts for verts, (n, b) in facets.items() if sum(map(mul, n, p)) > b]
        if not visible:
            continue
        ridge_count = Counter()
        for verts in visible:
            for v in verts:
                ridge_count[tuple(x for x in verts if x != v)] += 1
        for verts in visible:
            del facets[verts]
        for ridge, cnt in ridge_count.items():
            if cnt != 1:
                continue
            verts = tuple(sorted(ridge + (idx,)))
            facets[verts] = plane(verts)

    # merge coplanar simplicial facets into true facets: (n, b) is primitive
    # because n is, so equal planes have equal keys
    merged = {}
    for verts, plane_nb in facets.items():
        merged.setdefault(plane_nb, set()).update(verts)

    merged_facets = sorted((n, b, tuple(sorted(vs))) for (n, b), vs in merged.items())

    # a boundary point is extreme iff its active facet normals span R^k
    extreme = []
    on_boundary = sorted({v for _, _, vs in merged_facets for v in vs})
    for v in on_boundary:
        normals = [n for n, b, vs in merged_facets if v in vs]
        if len(bareiss(normals)[1]) == k:
            extreme.append(v)

    simplices = sorted((verts, n, b) for verts, (n, b) in facets.items())
    return extreme, merged_facets, simplices


def _rational(x):
    if isinstance(x, float):
        raise DomainError(f"hull coordinates must be ints or Fractions, not the float {x!r}")
    return x if isinstance(x, (int, Q)) else Q(x)


def hull(points) -> Polytope:
    """Convex hull with minimal vertex list and span-relative facet description."""
    pts = {tuple(map(_rational, p)) for p in points}
    if not pts:
        raise DomainError("hull of an empty point set")
    if len({len(p) for p in pts}) > 1:
        raise DomainError("points of unequal dimension")
    den = common_denominator(x for p in pts for x in p)
    return _hull(sorted(scaled(p, den) for p in pts), den)


def _hull(points, den) -> Polytope:
    """Hull of the points p / den, for sorted distinct int tuples p and den > 0."""
    base = points[0]
    span_basis, pivots = rref([vsub(p, base) for p in points[1:]])
    facets, fan = (), ((0,),)
    if pivots:
        coords = [tuple(p[j] - base[j] for j in pivots) for p in points]
        extreme, merged, simplices = _hull_core(coords)
        # A point that was extreme when it was added can end up inside a facet
        # or an edge of the final hull, still a corner of boundary simplices.
        # Hulling the extreme points again drops it, so the triangulation that
        # volumes and integrals run over has fewer pieces: on the first 30
        # seed-0 gl3-lift problems this pass ran on 255 of the 703 hulls of
        # dimension >= 2, and their boundary simplices fell from 9,205 to 8,810.
        if len(extreme) < len(points):
            points = [points[i] for i in extreme]
            coords = [coords[i] for i in extreme]
            extreme, merged, simplices = _hull_core(coords)
        # n.(den c) <= b is (den n).c <= b in span coordinates c
        planes = sorted(primitive(tuple(den * a for a in n) + (b,)) for n, b, _ in merged)
        facets = tuple((key[:-1], key[-1]) for key in planes)
        # the apex, vertex 0, is at span coordinates 0: facets through it have b = 0
        fan = tuple((0,) + verts for verts, _, b in simplices if b != 0)
    # the denominators of the input need not survive in the vertices
    g = gcd(den, *(x for p in points for x in p))
    if g > 1:
        den, points = den // g, [tuple(x // g for x in p) for p in points]
    return Polytope(den=den, points=tuple(points), span_basis=tuple(span_basis),
                    span_pivots=tuple(pivots), facets=facets, fan=fan)


def minkowski_sum(p: Polytope, q: Polytope) -> Polytope:
    if p.ambient_dim != q.ambient_dim:
        raise DomainError("Minkowski sum of polytopes in different ambient spaces")
    den = lcm(p.den, q.den)
    a, b = den // p.den, den // q.den
    return _hull(sorted({tuple(a * x + b * y for x, y in zip(v, w))
                         for v in p.points for w in q.points}), den)


def dilate(p: Polytope, k) -> Polytope:
    if isinstance(k, float):
        raise DomainError(f"dilation factor must be an int or a Fraction, not the float {k!r}")
    k = Q(k)
    if k < 0:
        raise DomainError("dilation factor must be nonnegative")
    return _hull(sorted({tuple(k.numerator * x for x in v) for v in p.points}),
                 k.denominator * p.den)


def triangulation(p: Polytope):
    """Fan of simplices over the lexicographically smallest vertex.

    Returns a tuple of simplices, each a (dim+1)-tuple of ambient vertices.
    The decomposition is deterministic and covers p exactly.
    """
    vertices = p.vertices
    return tuple(tuple(vertices[i] for i in simplex) for simplex in p.fan)


def _span_sublattice(p: Polytope, lattice: AffineLattice):
    # the rank drops exactly when the span leaves the lattice's direction space
    sub = lattice.direction_sublattice(list(p.span_basis))
    if len(sub) != p.dim:
        raise DomainError("polytope span not contained in the lattice's direction space, "
                          "so the lattice does not have full rank on it")
    return sub


def _simplices(p: Polytope, lattice: AffineLattice):
    """(scale, unit, [(vertices, jac), ...]) for the simplices of p.fan:
    scale is p.den = s, and the simplex vertices are p.points, the
    vertices times s, looked up by index, as are their edges from the
    apex, vertex 0, where every simplex starts; jac / unit is dim(p)!
    times the simplex's volume in units of the lattice cell on p's span.

    Both determinants are taken in span coordinates (the entries at
    span_pivots): span_basis is in RREF, so projecting onto the pivots is
    injective on the span and the ratio is the lattice-normalized volume.
    Both are integer: jac is the |det| of the scaled edges, s^dim times
    that of the simplex, and unit is s^dim times the lattice cell's.  For a
    point both are the 0x0 determinant, 1.
    """
    pivots = p.span_pivots
    cell = abs(det([[m[i] for i in pivots] for m in _span_sublattice(p, lattice)]))
    ints = p.points
    edges = [[w[i] - ints[0][i] for i in pivots] for w in ints]
    out = [([ints[i] for i in simplex], abs(det([edges[i] for i in simplex[1:]])))
           for simplex in p.fan]
    return p.den, cell * p.den ** p.dim, out


def volume(p: Polytope, lattice: AffineLattice):
    """Volume of p in its affine span, normalized so a fundamental cell of
    (lattice direction) ∩ span has volume 1.

    Works in span coordinates: the integer determinants of the simplices
    are summed and divided once by the determinant of the lattice cell,
    both at p's span pivots.  A point has volume 1, the convention that
    makes degree-0 polarization and fiber integration come out right: it
    falls out of its fan ((0,),), as a 0x0 determinant is 1 and 0! = 1.
    """
    _, unit, simplices = _simplices(p, lattice)
    return Q(sum(jac for _, jac in simplices), unit * factorial(p.dim))


def lattice_points(p: Polytope, lattice: AffineLattice):
    """All points of the affine lattice inside p, sorted: int tuples when the
    lattice's offset is integral, `Fraction` tuples otherwise.

    Every vertex of p must lie in the affine span of the lattice (all uses in
    this library satisfy that).  Enumeration works in lattice coordinates,
    on the hull of the vertices' coordinates there, slice by slice: see
    `_integer_points`.  When those coordinates are p's own vertices, as on
    the standard lattice, the affine map back to ambient points fixes p's
    span, so the integer points found are the answer; otherwise only the
    points found are mapped back.  No candidate is tested for membership.
    """
    vertices = p.vertices
    coords = []
    for v in vertices:
        c = lattice.coordinates(v)
        if c is None:
            raise DomainError("polytope must lie in the affine span of the lattice")
        coords.append(c)
    if coords == list(vertices):
        return sorted(_integer_points(p))
    return sorted(map(lattice.point_at, _integer_points(hull(coords))))


def _integer_points(q: Polytope):
    """Yield the integer points of q as int tuples, slice by slice.

    The span pivots of q but the last range over the integers of q's
    bounding box.  With such a prefix fixed, each facet n.c <= b becomes a
    bound a*x <= rem on the last pivot x: an upper bound when a > 0, a lower
    one when a < 0, and for a == 0 either no bound or, when rem < 0, an
    empty slice.  The other coordinates follow from the pivots through
    span_basis, and a point is kept only when they are integers; they
    always are when q is full-dimensional, as span_basis is then the
    identity.
    """
    points, den, pivots, basis = q.points, q.den, q.span_pivots, q.span_basis
    if not pivots:
        if all(x % den == 0 for x in points[0]):
            yield tuple(x // den for x in points[0])
        return
    boxes = [(-(-min(v[j] for v in points) // den), max(v[j] for v in points) // den)
             for j in pivots]
    # n.(x - base) <= b at the pivots is n.x <= b + n.base, base = points[0] / den;
    # n.x is an integer, so the right side may be rounded down to one
    start = [points[0][j] for j in pivots]
    bounds = [(n[:-1], n[-1], (den * b + sum(map(mul, n, start))) // den) for n, b in q.facets]
    base = q.base
    full = len(pivots) == len(base)
    for prefix in itertools.product(*(range(lo, hi + 1) for lo, hi in boxes[:-1])):
        lo, hi = boxes[-1]
        for head, a, rhs in bounds:
            rem = rhs - sum(x * y for x, y in zip(head, prefix))
            if a > 0:
                hi = min(hi, rem // a)
            elif a < 0:
                lo = max(lo, -(-rem // a))
            elif rem < 0:
                hi = lo - 1
                break
        for x in range(lo, hi + 1):
            pivot_values = prefix + (x,)
            if full:
                yield pivot_values
                continue
            c = [v - base[j] for v, j in zip(pivot_values, pivots)]
            point = [base[i] + sum(cj * row[i] for cj, row in zip(c, basis))
                     for i in range(len(base))]
            if all(is_integral(v) for v in point):
                yield tuple(int(v) for v in point)
