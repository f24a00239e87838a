"""Exact rational convex polytopes.

A Polytope stores its sorted extreme vertices times `den`, their least
common denominator, as int tuples `points`; (den, points) is canonical and
backs `==`, `hash` (taken once, at construction) and the memo in `spaces`,
and `vertices` reads it back as rationals.  It also stores its span basis,
the `rref` int rows over their one pivot entry d, its facets and its fan:
every field is an int, and rationals are made only where they leave.
Degenerate (lower-dimensional) polytopes are first class: every volume or
integral is taken relative to the affine span, normalized to a caller-chosen
lattice.

A plane hull is the ring of Andrew's monotone chain, `_chain`, stored by
`_polygon`; `_from_planes` stores every other body from its vertices and
half-spaces.  Off the plane a hull is a point, a segment's two ends, or
the output of an exact incremental (beneath-beyond) algorithm on
triangulated boundary facets, `_hull_core`.  Dimensions are small enough
that asymptotics are irrelevant, and determinism matters more: points
are processed in lexicographic order.
Every builder gives one kind of fan, the pulling triangulation from vertex
0, the same way in every dimension: volumes and integrals need no
low-dimensional case.  A polygon reads it off its ring, and every other
body takes it from `_pulling_fan`, memoized by the facets' incidence.

`hull` is the one place where rationals become ints: it rejects floats and
scales its points once by their common denominator.  `_hull`, which `hull`
calls on those ints, eliminates only for the span and, in `_hull_core`, the
first simplex's facets: later facet planes come from the pencil of the two
planes through a ridge, extreme vertices from a rank test.  Four builders
take no hull: `minkowski_sum` in the plane stores the `_chain` of the
pairwise sums, and passes only a ring of 1 or 2 points, a point or a
segment, to `_hull`; `dilate` scales the points and facet offsets, keeping
the fan; and `newton_lift` and `gt_polytope` know their vertices and a
superset of their facets.  A fan's int determinants take one elimination each.

Lattice points are enumerated by slices in lattice coordinates: all span
pivots but the last range over the bounding box, and the facet inequalities
give the last pivot's integer interval, so no point is tested for
membership.  A slice is a progression of int points: `lattice_points`
expands it, and `spaces.hilbert_function` sums over it in closed form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import factorial, gcd, lcm
from operator import and_, mul

from .errors import DomainError, check_length
from .lattices import AffineLattice
from .linalg import (common_denominator, det, determinants, extend_echelon, normal_vector,
                     primitive, rref, scaled, vsub)
from .rationals import Q, exact_point


@dataclass(frozen=True, eq=False)
class Polytope:
    den: int                   # least common denominator of the vertices
    points: tuple              # sorted vertices times den, as int tuples
    span_basis: tuple          # d times the direction space's rref: int rows, pivot entries d
    span_pivots: tuple         # pivot columns of span_basis
    facets: tuple              # ((integer normal, integer offset), ...) in span coords
    fan: tuple                 # triangulation: (dim+1)-tuples of vertex indices from 0

    def __post_init__(self):
        # immutable, so hashed once: memo keys made of polytopes hash cheaply
        object.__setattr__(self, "_hash", hash((self.den, self.points)))

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
        diff = vsub(tuple(Q(x) for x in point), self.base)
        pivots, rows = self.span_pivots, self.span_basis
        # in the span, e d diff = sum_j (e diff at pivot j) row_j, e a denominator
        v, d = scaled(diff, common_denominator(diff)), rows[0][pivots[0]] if rows else 1
        if any(d * x != sum(v[p] * row[i] for p, row in zip(pivots, rows))
               for i, x in enumerate(v)):
            return None
        return tuple(diff[p] for p in pivots)

    def contains(self, point) -> bool:
        coords = self.span_coordinates(point)
        if coords is None:
            return False
        return all(sum(map(mul, n, coords)) <= b for n, b in self.facets)

    def __eq__(self, other):
        return self is other or (isinstance(other, Polytope) and self._hash == other._hash
                                 and self.den == other.den and self.points == other.points)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Polytope(dim={self.dim}, vertices={len(self.points)})"


def _hull_core(coords):
    """Incremental hull of full-dimensional integer coords (dim k >= 2,
    affine rank k; `_hull` takes a segment's two ends itself).

    Returns (extreme indices sorted, merged facets sorted), a merged facet
    (normal, offset, vertex indices) with primitive normal and n.x <= b on the
    hull; its vertices may include non-extreme boundary points.

    Only the initial simplex's facets take an elimination.  A later facet
    joins p to a horizon ridge on a facet (n1, b1) that sees p and one
    (n2, b2) that does not; with h = n.p - b, so h1 > 0 >= h2, its plane is
    h1 (n2, b2) - h2 (n1, b1), which faces out.  `ridges` maps each ridge to
    the facets through it."""
    k, npts = len(coords[0]), len(coords)

    # initial simplex: greedy scan for k+1 affinely independent points
    simplex_idx, echelon = [0], []
    for i in range(1, npts):
        if extend_echelon(echelon, vsub(coords[i], coords[0])):
            simplex_idx.append(i)
            if len(simplex_idx) == k + 1:
                break
    if len(simplex_idx) != k + 1:
        raise DomainError("point set is not full-dimensional in span coordinates")

    # the simplex's vertex sum is k+1 times an interior point
    inside = tuple(sum(coords[i][j] for i in simplex_idx) for j in range(k))

    def oriented(n, b):
        side = sum(map(mul, n, inside)) - (k + 1) * b
        if side > 0:
            return tuple(-x for x in n), -b
        if side == 0:
            raise DomainError("interior point on facet hyperplane")
        return n, b

    facets, ridges = {}, {}

    def add(verts, plane):
        facets[verts] = plane
        for i in range(k):
            ridges.setdefault(verts[:i] + verts[i + 1:], []).append(verts)

    for omit in simplex_idx:
        verts = tuple(sorted(i for i in simplex_idx if i != omit))
        q0 = coords[verts[0]]
        n = normal_vector([vsub(coords[i], q0) for i in verts[1:]])
        if n is None:
            raise DomainError("degenerate facet hyperplane")
        add(verts, oriented(n, sum(map(mul, n, q0))))

    for idx in range(npts):
        if idx in simplex_idx:
            continue
        p = coords[idx]
        heights = ((verts, sum(map(mul, n, p)) - b) for verts, (n, b) in facets.items())
        visible = {verts: h for verts, h in heights if h > 0}
        for verts, h1 in visible.items():
            n1, b1 = facets.pop(verts)
            for i in range(k):
                ridge = verts[:i] + verts[i + 1:]
                # the other facet through the ridge; if it is visible too, the
                # ridge goes, and it is gone already if that one came first
                f, g = ridges.pop(ridge, (verts, verts))
                other = g if f == verts else f
                if other in visible:
                    continue
                ridges[ridge] = [other]
                n2, b2 = facets[other]
                h2 = sum(map(mul, n2, p)) - b2
                n = [h1 * y - h2 * x for x, y in zip(n1, n2)]
                d = gcd(*n)
                if d == 0:
                    raise DomainError("degenerate facet hyperplane")
                add(tuple(sorted(ridge + (idx,))),
                    oriented(tuple(x // d for x in n), (h1 * b2 - h2 * b1) // d))

    # merge coplanar simplicial facets into true facets: (n, b) is primitive
    # because n is, so equal planes have equal keys
    merged = {}
    for verts, plane_nb in facets.items():
        merged.setdefault(plane_nb, set()).update(verts)

    merged_facets = sorted((n, b, tuple(sorted(vs))) for (n, b), vs in merged.items())

    # a boundary point is extreme iff its active facet normals span R^k;
    # the reduction stops once they do
    active = {}
    for n, _, vs in merged_facets:
        for v in vs:
            active.setdefault(v, []).append(n)
    extreme = []
    for v in sorted(active):
        echelon = []
        if any(extend_echelon(echelon, n) and len(echelon) == k for n in active[v]):
            extreme.append(v)

    return extreme, merged_facets


def hull(points) -> Polytope:
    """Convex hull with minimal vertex list and span-relative facet description."""
    pts = {exact_point(p, "hull coordinates") for p in points}
    if not pts:
        raise DomainError("hull of an empty point set")
    if len({len(p) for p in pts}) > 1:
        raise DomainError("points of unequal dimension")
    den = common_denominator(x for p in pts for x in p)
    return _hull(sorted(scaled(p, den) for p in pts), den)


def _hull(points, den) -> Polytope:
    """Hull of the points p / den, for sorted distinct int tuples p and den > 0:
    `_polygon` of the `_chain` in the plane, else `_from_planes` of a point,
    a segment's ends bounded along its span row r, or `_hull_core`'s extreme
    points and planes n.c <= b, c = p - base at the pivots, as n.p <= b + n.base."""
    base = points[0]
    span_basis, pivots = rref([vsub(p, base) for p in points[1:]])
    if len(pivots) == 2 == len(base):
        return _polygon(_chain(points), den)
    if not pivots:
        return _from_planes([base], den, ())
    if len(pivots) == 1:  # sorted along the row, whose pivot entry is > 0: two ends
        row, end = span_basis[0], points[-1]
        return _from_planes([base, end], den, [(row, sum(map(mul, row, end))),
                                               ([-x for x in row], -sum(map(mul, row, base)))])
    extreme, merged = _hull_core([tuple(p[j] - base[j] for j in pivots) for p in points])
    planes = []
    for n, b, _ in merged:
        at = dict(zip(pivots, n))
        a = [at.get(j, 0) for j in range(len(base))]
        planes.append((a, b + sum(map(mul, a, base))))
    return _from_planes([points[i] for i in extreme], den, planes)


def _polytope(points, den, span_basis, pivots, facets, fan) -> Polytope:
    # the denominators of the input need not survive in the vertices
    g = gcd(den, *(x for p in points for x in p))
    if g > 1:
        den, points = den // g, [tuple(x // g for x in p) for p in points]
    return Polytope(den=den, points=tuple(points), span_basis=tuple(span_basis),
                    span_pivots=tuple(pivots), facets=facets, fan=fan)


def _maximal(masks):
    """The inclusion-maximal masks: a strict superset has more bits, so it comes first."""
    kept = []
    for m in sorted(masks, key=int.bit_count, reverse=True):
        if all(m & k != m for k in kept):
            kept.append(m)
    return kept


def _pulling_fan(facet_masks, npts, dim):
    """The pulling triangulation (De Loera, Rambau and Santos, Triangulations,
    2010) of a dim-polytope with vertices 0..npts-1, from the vertex sets
    of its facets as bitmasks: a face with dim+1 vertices is a simplex, any
    other is coned from its lowest vertex over its facets that miss it, the
    maximal proper sets F & G for G a facet, so every top-level simplex
    starts at vertex 0.  Returns the sorted tuple of vertex-index tuples,
    kept by `_fan` in a bounded memo keyed by the set of masks alone."""
    return _fan(frozenset(facet_masks), npts, dim)


@lru_cache(maxsize=1024)
def _fan(facet_masks, npts, dim):
    memo = {}

    def pull(face, dim):
        if face not in memo:
            if face.bit_count() == dim + 1:
                memo[face] = [tuple(i for i in range(npts) if face >> i & 1)]
            else:
                apex = face & -face
                memo[face] = [(apex.bit_length() - 1,) + simplex
                              for cut in _maximal({face & m for m in facet_masks} - {face})
                              if not cut & apex for simplex in pull(cut, dim - 1)]
        return memo[face]

    return tuple(sorted(pull((1 << npts) - 1, dim)))


def _from_planes(points, den, planes) -> Polytope:
    """The stored form of the polytope whose vertices are the sorted
    distinct int points p / den, when the int half-spaces n.p <= b in
    `planes` include every facet: the one builder off the plane, for
    `_hull`, `newton_lift` and `gt_polytope`.

    A half-space's tight set is a face, so the facets are the maximal
    proper tight sets, bitmasks over the points (`_facet_masks`).  In span
    coordinates c, n.p is n.p0 + sum_i c_i (n.row_i) / d, for the `rref`
    rows of the span and their pivot entry d, or the identity and 1 for a
    full-rank span.  The fan is `_pulling_fan`'s.  A point cut off by a
    half-space, or not a vertex, raises DomainError.
    """
    base, everything = points[0], (1 << len(points)) - 1
    echelon, ambient = [], range(len(base))
    if any(extend_echelon(echelon, vsub(p, base)) and len(echelon) == len(base)
           for p in points[1:]):
        rows, pivots = [tuple(int(i == j) for j in ambient) for i in ambient], ambient
    else:
        rows, pivots = rref([vsub(p, base) for p in points[1:]])
    tight = {}
    for n, b in planes:
        slacks = [b - sum(map(mul, n, p)) for p in points]
        if min(slacks) < 0:
            raise DomainError("a point violates a half-space of its polytope")
        mask = sum(1 << i for i, s in enumerate(slacks) if s == 0)
        if 0 < mask < everything:
            tight.setdefault(mask, (n, b))

    facet_masks = _facet_masks(frozenset(tight), len(points))
    d = rows[0][pivots[0]] if pivots else 1
    planes = []
    for n, b in map(tight.get, facet_masks):
        normal = tuple(den * sum(map(mul, n, row)) for row in rows)
        planes.append(primitive(normal + (d * (b - sum(map(mul, n, base))),)))
    return _polytope(points, den, rows, pivots,
                     tuple((key[:-1], key[-1]) for key in sorted(planes)),
                     _pulling_fan(facet_masks, len(points), len(pivots)))


@lru_cache(maxsize=1024)
def _facet_masks(tight, npts):
    """The maximal ones of a frozenset of tight masks over npts points, in a
    bounded memo; DomainError, never cached, unless each point is the
    intersection of the facets through it."""
    facet_masks, everything = tuple(_maximal(tight)), (1 << npts) - 1
    for i in range(npts):
        if reduce(and_, [m for m in facet_masks if m >> i & 1], everything) != 1 << i:
            raise DomainError("a point of a polytope is not a vertex")
    return facet_masks


def minkowski_sum(p: Polytope, q: Polytope) -> Polytope:
    """p + q, equal to `_hull` of the pairwise sums in every stored field.

    In the plane the sum takes no hull: `_chain` of the pairwise sums is its
    ring, which `_polygon` stores, and only a ring of fewer than 3 points, a
    segment or a point, goes to `_hull`.  A sum in any other dimension is
    `_hull` of the |p| |q| candidate sums."""
    if p.ambient_dim != q.ambient_dim:
        raise DomainError("Minkowski sum of polytopes in different ambient spaces")
    den = lcm(p.den, q.den)
    a, b = den // p.den, den // q.den
    sums = sorted({tuple(a * x + b * y for x, y in zip(v, w))
                   for v in p.points for w in q.points})
    if p.ambient_dim == 2:
        ring = _chain(sums)
        return _polygon(ring, den) if len(ring) >= 3 else _hull(ring, den)
    return _hull(sums, den)


def _chain(points):
    """The extreme points of the sorted distinct int plane points,
    counter-clockwise from the first, by Andrew's monotone chain (Inf. Proc.
    Lett. 1979): the lower chain left to right, then the upper one back,
    each keeping only left turns.  Collinear points give their two ends,
    and one point gives itself."""
    def half(seq):
        out = []
        for x, y in seq:
            while len(out) > 1 and ((out[-1][0] - out[-2][0]) * (y - out[-2][1])
                                    <= (out[-1][1] - out[-2][1]) * (x - out[-2][0])):
                out.pop()
            out.append((x, y))
        return out[:-1]

    return half(points) + half(reversed(points)) or points


def _polygon(ring, den) -> Polytope:
    """What `_hull` gives for the counter-clockwise strictly convex ring of
    int points p / den: an edge (dx, dy) from v is the facet with outward
    normal (dy, -dx) through v, in coordinates from the smallest vertex,
    and its two ends are the facet's vertices.  The fan is the pulling fan
    from vertex 0, one triangle (0, a, b) per edge {a, b} that misses it."""
    points = sorted(ring)
    position = {v: i for i, v in enumerate(points)}
    (bx, by), planes, fan = points[0], [], []
    for v, w in zip(ring, ring[1:] + ring[:1]):
        dx, dy = w[0] - v[0], w[1] - v[1]
        planes.append(primitive((den * dy, -den * dx, dy * (v[0] - bx) - dx * (v[1] - by))))
        i, j = sorted((position[v], position[w]))
        if i:
            fan.append((0, i, j))
    return _polytope(points, den, ((1, 0), (0, 1)), (0, 1),
                     tuple((key[:-1], key[-1]) for key in sorted(planes)), tuple(sorted(fan)))


def dilate(p: Polytope, k) -> Polytope:
    """k p for an int or `Fraction` k = u / v >= 0, with no hull: points times u,
    `den` times v, and a facet N.c <= B in span coordinates becomes primitive(v N,
    u B).  The points keep their order, so the span and fan stay; 0 p is 0."""
    if isinstance(k, float):
        raise DomainError(f"dilation factor must be an int or a Fraction, not the float {k!r}")
    k = k if isinstance(k, int) else Q(k)
    if k < 0:
        raise DomainError("dilation factor must be nonnegative")
    if k == 0:
        return _polytope([(0,) * p.ambient_dim], 1, (), (), (), ((0,),))
    u, v = k.numerator, k.denominator
    planes = sorted(primitive(tuple(v * a for a in n) + (u * b,)) for n, b in p.facets)
    return _polytope([tuple(u * x for x in pt) for pt in p.points], v * p.den, p.span_basis,
                     p.span_pivots, tuple((key[:-1], key[-1]) for key in planes), p.fan)


def triangulation(p: Polytope):
    """Fan of simplices over the lexicographically smallest vertex.

    Returns a tuple of simplices, each a (dim+1)-tuple of ambient vertices.
    The decomposition is deterministic and covers p exactly.
    """
    vertices = p.vertices
    return tuple(tuple(vertices[i] for i in simplex) for simplex in p.fan)


@lru_cache(maxsize=1024)
def _lattice_cell(span_basis, pivots, lattice: AffineLattice) -> int:
    """|det| at the pivots of a basis of the lattice's direction vectors in
    the span of span_basis: the lattice cell on that span, cached, since
    polytopes of one span share it.  A failed rank check is not cached."""
    # the rank drops exactly when the span leaves the lattice's direction space
    sub = lattice.direction_sublattice(list(span_basis))
    if len(sub) != len(span_basis):
        raise DomainError("polytope span not contained in the lattice's direction space, "
                          "so the lattice does not have full rank on it")
    return abs(det([[m[i] for i in pivots] for m in sub]))


def _simplices(p: Polytope, lattice: AffineLattice):
    """(scale, unit, jacs), jacs[i] for the simplex p.fan[i], whose vertices
    times scale = p.den = s are p.points at its indices, its apex vertex 0;
    jac / unit is dim(p)! times its volume in lattice cells of p's span.

    Both determinants are taken in span coordinates (the entries at
    span_pivots): span_basis is an RREF times d, so the pivots' projection is
    injective on the span and the ratio is the lattice-normalized volume.
    Both are integer: jac is the |det| of the scaled edges, s^dim times
    that of the simplex, and unit is s^dim times the lattice cell's.  For a
    point both are the 0x0 determinant, 1.  One `determinants` call takes
    all jacs, one elimination per simplex.
    """
    pivots = p.span_pivots
    cell = _lattice_cell(p.span_basis, pivots, lattice)
    ints = p.points
    edges = [[w[i] - ints[0][i] for i in pivots] for w in ints]
    jacs = determinants(edges, [simplex[1:] for simplex in p.fan])
    return p.den, cell * p.den ** p.dim, [abs(jac) for jac in jacs]


def volume(p: Polytope, lattice: AffineLattice):
    """Volume of p in its affine span, normalized so a fundamental cell of
    (lattice direction) ∩ span has volume 1.

    Works in span coordinates: the integer determinants of the simplices
    are summed and divided once by the determinant of the lattice cell,
    both at p's span pivots.  A point has volume 1, the convention that
    makes degree-0 polarization and fiber integration come out right: it
    falls out of its fan ((0,),), as a 0x0 determinant is 1 and 0! = 1.
    """
    _, unit, jacs = _simplices(p, lattice)
    return Q(sum(jacs), unit * factorial(p.dim))


def _lattice_body(p: Polytope, lattice: AffineLattice) -> Polytope:
    """p in the lattice's coordinates: p itself when they are its vertices, as
    on the standard lattice, else the hull of the vertices' coordinates."""
    vertices = p.points if p.den == 1 else p.vertices
    coords = [lattice.coordinates(v) for v in vertices]
    if None in coords:
        raise DomainError("polytope must lie in the affine span of the lattice")
    return p if coords == list(vertices) else hull(coords)


def lattice_points(p: Polytope, lattice: AffineLattice):
    """All points of the affine lattice inside p, sorted: int tuples when the
    lattice's offset is integral, `Fraction` tuples otherwise.  Every vertex
    of p must lie in the lattice's affine span.  The integer points of
    `_lattice_body` are mapped back unless that body is p itself."""
    body = _lattice_body(p, lattice)
    points = (tuple(x + t * s for x, s in zip(first, step))
              for first, step, count in _slices(body) for t in range(count))
    return sorted(points if body is p else map(lattice.point_at, points))


def _slices(q: Polytope):
    """Yield the integer points of q in lexicographic order, one slice at a
    time, as progressions (first, step, count): the int points first + t step.

    The span pivots but the last range over q's bounding box.  With such a
    prefix fixed, a facet n.c <= b bounds the last pivot x by a*x <= rem: from
    above when a > 0, from below when a < 0, and when a == 0 not at all or,
    if rem < 0, to nothing.  Through span_basis, x + 1 moves a point by its
    last row r over the pivot entry d, so the integer points are one class
    of x modulo L = d / gcd(d, r), found by a scan of at most L values, with
    step L r / d.  The scan holds the point times den d, as ints.
    """
    points, den, pivots, basis = q.points, q.den, q.span_pivots, q.span_basis
    if not pivots:
        if all(x % den == 0 for x in points[0]):
            yield tuple(x // den for x in points[0]), (0,) * len(points[0]), 1
        return
    boxes = [(-(-min(v[j] for v in points) // den), max(v[j] for v in points) // den)
             for j in pivots]
    # n.(x - base) <= b at the pivots is n.x <= b + n.base, base = points[0] / den;
    # n.x is an integer, so the right side may be rounded down to one
    start = [points[0][j] for j in pivots]
    bounds = [(n[:-1], n[-1], (den * b + sum(map(mul, n, start))) // den) for n, b in q.facets]
    base, last = points[0], basis[-1]
    d = last[pivots[-1]]
    g = gcd(d, *last)
    period, step, scale = d // g, tuple(x // g for x in last), den * d
    full = len(pivots) == len(base)
    for prefix in itertools.product(*(range(lo, hi + 1) for lo, hi in boxes[:-1])):
        lo, hi = boxes[-1]
        for head, a, rhs in bounds:
            rem = rhs - sum(map(mul, head, prefix))
            if a > 0:
                hi = min(hi, rem // a)
            elif a < 0:
                lo = max(lo, -(-rem // a))
            elif rem < 0:
                hi = lo - 1
                break
        if lo > hi:
            continue
        if full:
            yield prefix + (lo,), step, hi - lo + 1
            continue
        c = [den * v - base[j] for v, j in zip(prefix + (lo,), pivots)]
        point = [d * base[i] + sum(cj * row[i] for cj, row in zip(c, basis))
                 for i in range(len(base))]
        for x in range(lo, min(hi, lo + period - 1) + 1):
            if all(v % scale == 0 for v in point):
                yield tuple(v // scale for v in point), step, (hi - x) // period + 1
                break
            point = [v + den * y for v, y in zip(point, last)]
