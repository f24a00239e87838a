"""Property tests: the integer hull and measure kernel against the rational
one it replaced.

The oracle below is the `Fraction` kernel: facet planes from a rational
nullspace, an interior point that is the simplex centroid, planes merged
through `clear_denominators`, and determinants by Gaussian elimination over
Q.  The library scales points by their common denominator and does all of
that on ints, and takes a new facet's plane from the pencil of the two
facets through its horizon ridge; both must give the same polytope and the
same volumes.  The oracle's fan is the beneath-beyond boundary coned from
the first vertex, while every library polytope, a hull or a
Gelfand-Tsetlin lift built without one, is triangulated by pulling: so the
fan is checked by a certificate, `assert_triangulates`, not against the
oracle's.

A hull in the plane is the ring of Andrew's monotone chain, `_chain`, and
a Minkowski sum in the plane is the chain of the pairwise sums; the sum
must store exactly what `_hull` of the pairwise sums stores, field by
field.  As `_hull` shares the chain, both are also checked against the
oracle on plane point sets with collinear, interior and repeated points,
and their fans against `_pulling_fan` of their facets.  A segment in any
dimension is its two ends, with no `_hull_core`, and is checked the same
way, and so are single points and Minkowski sums of points and parallel
segments off the plane, whose stored forms `_from_planes` builds with no
core either.
"""

import itertools
from collections import Counter
from functools import reduce
from math import factorial, lcm
from operator import mul
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_kernel import (ONE, ZERO, clear_denominators, dot, fraction_det, nullspace,
                             rref)
from horoindex import (AffineLattice, ChamberFace, DomainError, GroupDescriptor,
                       HorosphericalSpace, Q, SupportSet, hull, minkowski_sum,
                       moment_polytope, newton_lift, volume)
from horoindex import polytopes
from horoindex.gelfand_tsetlin import fiber_vertices
from horoindex.linalg import det, vsub
from horoindex.polytopes import _hull, _hull_core, _pulling_fan

PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)

# index-2 sublattices of Z^n, not axis-aligned where n >= 2
INDEX_TWO = {
    1: ((2,),),
    2: ((1, 1), (1, -1)),
    3: ((1, 1, 0), (1, -1, 0), (0, 1, 1)),
    4: ((1, 1, 0, 0), (1, -1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)),
    5: ((1, 1, 0, 0, 0), (1, -1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 1, 1, 0), (0, 0, 0, 1, 1)),
    6: ((1, 1, 0, 0, 0, 0), (1, -1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0), (0, 0, 1, 1, 0, 0),
        (0, 0, 0, 1, 1, 0), (0, 0, 0, 0, 1, 1)),
}


# -- the rational kernel, on `fraction_kernel` ---------------------------------

def plane_through(points, interior):
    q0 = points[0]
    rows = [vsub(p, q0) for p in points[1:]]
    kernel = nullspace(rows) if rows else nullspace([tuple([ZERO] * len(q0))])
    if len(kernel) != 1:
        raise DomainError("degenerate facet hyperplane")
    n = kernel[0]
    b = dot(n, q0)
    side = dot(n, interior)
    if side > b:
        n, b = tuple(-x for x in n), -b
    elif side == b:
        raise DomainError("interior point on facet hyperplane")
    return n, b


def fraction_hull_core(coords):
    k = len(coords[0])
    npts = len(coords)
    simplex_idx = [0]
    basis_rows = []
    for i in range(1, npts):
        d = vsub(coords[i], coords[0])
        trial = basis_rows + [d]
        if len(rref(trial)[0]) > len(basis_rows):
            basis_rows.append(d)
            simplex_idx.append(i)
            if len(simplex_idx) == k + 1:
                break
    interior = tuple(sum((coords[i][j] for i in simplex_idx), ZERO) / (k + 1)
                     for j in range(k))
    facets = {}
    for omit in simplex_idx:
        verts = tuple(sorted(i for i in simplex_idx if i != omit))
        facets[verts] = plane_through([coords[i] for i in verts], interior)
    for idx in range(npts):
        if idx in simplex_idx:
            continue
        p = coords[idx]
        visible = [verts for verts, (n, b) in facets.items() if dot(n, p) > b]
        if not visible:
            continue
        ridge_count = Counter()
        for verts in visible:
            for v in verts:
                ridge_count[tuple(x for x in verts if x != v)] += 1
        for verts in visible:
            del facets[verts]
        for ridge, cnt in ridge_count.items():
            if cnt == 1:
                verts = tuple(sorted(ridge + (idx,)))
                facets[verts] = plane_through([coords[i] for i in verts], interior)
    merged = {}
    for verts, (n, b) in facets.items():
        merged.setdefault(clear_denominators(tuple(n) + (b,)), set()).update(verts)
    merged_facets = sorted((key[:-1], key[-1], tuple(sorted(vs))) for key, vs in merged.items())
    extreme = []
    for v in sorted({v for _, _, vs in merged_facets for v in vs}):
        if len(rref([n for n, b, vs in merged_facets if v in vs])[0]) == k:
            extreme.append(v)
    simplices = sorted((verts, n, b) for verts, (n, b) in facets.items())
    return extreme, merged_facets, simplices


def fraction_hull(points):
    """(vertices, span_basis, span_pivots, facets, simplices) of the old hull."""
    pts = sorted({tuple(Q(x) for x in p) for p in points})
    base = pts[0]
    span_basis, pivots = rref([vsub(p, base) for p in pts[1:]])
    k = len(span_basis)
    if k == 0:
        return (base,), (), (), (), ((base,),)
    coords = [tuple(vsub(p, base)[piv] for piv in pivots) for p in pts]
    if k == 1:
        lo = min(range(len(pts)), key=lambda i: coords[i][0])
        hi = max(range(len(pts)), key=lambda i: coords[i][0])
        nmax = clear_denominators((ONE, coords[hi][0]))
        nmin = clear_denominators((-ONE, -coords[lo][0]))
        verts = tuple(sorted({pts[lo], pts[hi]}))
        return (verts, tuple(span_basis), tuple(pivots),
                tuple(sorted([((nmax[0],), nmax[1]), ((nmin[0],), nmin[1])])), (verts,))
    extreme, merged, simplices = fraction_hull_core(coords)
    if len(extreme) < len(pts):
        pts = [pts[i] for i in extreme]
        coords = [coords[i] for i in extreme]
        extreme, merged, simplices = fraction_hull_core(coords)
    apex = pts[0]
    fan = tuple((apex,) + tuple(pts[i] for i in verts) for verts, n, b in simplices
                if dot(n, coords[0]) != b)
    return (tuple(pts), tuple(span_basis), tuple(pivots),
            tuple((n, b) for n, b, _ in merged), fan)


def fraction_volume(p, fan, lattice):
    pivots = p.span_pivots
    if not pivots:
        return ONE
    cell = abs(fraction_det([[m[i] for i in pivots]
                             for m in lattice.direction_sublattice(list(p.span_basis))]))
    total = ZERO
    for simplex in fan:
        v0 = simplex[0]
        total += abs(fraction_det([[v[i] - v0[i] for i in pivots] for v in simplex[1:]])) / cell
    return total / factorial(p.dim)


# -- point sets ---------------------------------------------------------------

@st.composite
def point_sets(draw):
    """Points in dimension 1-4: integral, over a common denominator above 1,
    or integral combinations of fewer directions than the dimension."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["integral", "denominator", "lower"]))
    coordinate = st.integers(-3, 3)
    count = draw(st.integers(2, 10))
    if kind == "lower":
        m = draw(st.integers(min(1, n - 1), n - 1))
        origin = tuple(draw(coordinate) for _ in range(n))
        dirs = [tuple(draw(coordinate) for _ in range(n)) for _ in range(m)]
        pts = []
        for _ in range(count):
            t = [draw(st.integers(-2, 2)) for _ in range(m)]
            pts.append(tuple(o + sum(ti * d[j] for ti, d in zip(t, dirs))
                             for j, o in enumerate(origin)))
        return n, pts
    denom = 1 if kind == "integral" else draw(st.sampled_from([2, 3, 6]))
    pts = [tuple(Q(draw(coordinate), denom) for _ in range(n)) for _ in range(count)]
    return n, pts


@st.composite
def cube_point_sets(draw):
    """Up to 20 points of {0, 1, 2}^n in dimension 5-6, full-dimensional or
    not: many are coplanar with a facet, so new facets often lie in the
    plane of a hidden neighbour and merge with it."""
    n = draw(st.integers(5, 6))
    count = draw(st.integers(n + 1, 20))
    return n, [tuple(draw(st.integers(0, 2)) for _ in range(n)) for _ in range(count)]


# -- properties ---------------------------------------------------------------

def assert_matches_the_fraction_kernel(n, pts):
    p = hull(pts)
    vertices, span_basis, pivots, facets, fan = fraction_hull(pts)
    assert p.vertices == vertices
    assert tuple(tuple(Q(x, row[c]) for x in row)
                 for row, c in zip(p.span_basis, p.span_pivots)) == span_basis
    assert p.span_pivots == pivots
    assert p.facets == facets
    assert_triangulates(p, facets, fan)


@PROPERTY
@given(point_sets())
def test_hull_matches_the_fraction_kernel(case):
    assert_matches_the_fraction_kernel(*case)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(cube_point_sets())
def test_coplanar_cube_hulls_match_the_fraction_kernel(case):
    n, pts = case
    p = hull(pts)
    vertices, _, _, facets, fan = fraction_hull(pts)
    assert (p.vertices, p.facets) == (vertices, facets)
    assert_triangulates(p, facets, fan)


def test_a_point_coplanar_with_a_hidden_facet():
    # (2,0,0) sees only x+y+z <= 1; the facets y >= 0 and z >= 0 behind its
    # horizon contain it, so its new facets lie in their planes and merge
    coords = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (2, 0, 0)]
    assert _hull_core(coords) == fraction_hull_core(coords)[:2]
    extreme, merged = _hull_core(coords)
    assert extreme == [0, 1, 2, 4]
    assert ((0, -1, 0), 0, (0, 1, 3, 4)) in merged
    assert ((0, 0, -1), 0, (0, 2, 3, 4)) in merged
    assert_matches_the_fraction_kernel(3, coords)


@pytest.mark.parametrize("points", [
    [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)],
    [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (2, 0, 0)],
])
def test_hull_drops_non_extreme_points_in_one_core(monkeypatch, points):
    # a square with its centre and edge midpoints, whose ring is `_chain`'s
    # with no core; (1, 0, 0) ends up inside an edge of the hull, still a
    # corner of beneath-beyond's boundary simplices
    calls, original = [], polytopes._hull_core

    def counting(coords):
        calls.append(coords)
        return original(coords)

    monkeypatch.setattr(polytopes, "_hull_core", counting)
    p = hull(points)
    assert len(calls) == (0 if len(points[0]) == 2 else 1)
    vertices, _, _, facets, fan = fraction_hull(points)
    assert (p.vertices, p.facets) == (vertices, facets)
    assert len(p.vertices) < len(points)
    assert_triangulates(p, facets, fan)


@pytest.mark.parametrize("blocks", [(1, 2), (2, 1)])
def test_lifts_of_minkowski_sums_match_the_fraction_kernel(blocks):
    face = ChamberFace(GroupDescriptor((3,)), (blocks,))
    bodies = [hull(s) for s in (((0, 0), (2, 1)), ((1, 0), (2, 2), (2, 0)),
                                ((0, 0), (1, 1), (2, 0)))]
    for a, b in itertools.combinations_with_replacement(bodies, 2):
        base = minkowski_sum(a, b)
        lift = newton_lift(face, base)
        candidates = [v + w for v in base.points for w in fiber_vertices(face, v)]
        vertices, _, _, facets, fan = fraction_hull(candidates)
        assert (lift.vertices, lift.facets) == (vertices, facets)
        assert_triangulates(lift, facets, fan)


def assert_triangulates(p, facets, fan):
    """A certificate that p.fan triangulates p, whose facets in span
    coordinates are `facets`, without pinning which triangulation: every
    simplex is nondegenerate, the volumes add up to those of the oracle's
    `fan`, and every ridge either lies on a facet and belongs to one
    simplex, or belongs to exactly two simplices on opposite sides of it.

    Sides are read off signed volumes: with its vertices in index order, a
    simplex's volume changes sign (-1)^(k - i) when its vertex at position i
    moves to the end, behind the ridge it faces."""
    pivots, k = p.span_pivots, p.dim
    # span coordinates times den, in ints: a facet n.c <= b is n.x <= den b on them
    coords = [tuple(v[j] - p.points[0][j] for j in pivots) for v in p.points]
    simplices = [tuple(sorted(s)) for s in p.fan]
    signed = {s: fraction_det([vsub(coords[i], coords[s[0]]) for i in s[1:]])
              for s in simplices}
    assert len(signed) == len(simplices) and all(signed.values())
    for lattice in (AffineLattice.standard(p.ambient_dim),
                    AffineLattice((0,) * p.ambient_dim, INDEX_TWO[p.ambient_dim])):
        assert volume(p, lattice) == fraction_volume(p, fan, lattice)
    if k == 0:  # a point has no ridge: its fan is its one vertex
        assert p.fan == ((0,),)
        return
    incidences = [{i for i, c in enumerate(coords) if sum(map(mul, n, c)) == p.den * b}
                  for n, b in facets]
    opposite = {}
    for s in simplices:
        for i in range(k + 1):
            opposite.setdefault(s[:i] + s[i + 1:], []).append((s, i))
    for ridge, others in opposite.items():
        on_facet = any(incident.issuperset(ridge) for incident in incidences)
        if len(others) == 1:
            assert on_facet
            continue
        assert not on_facet and len(others) == 2
        (s, i), (t, j) = others
        assert (-1) ** (i + j) * signed[s] * signed[t] < 0


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_only_the_initial_simplex_takes_an_elimination(monkeypatch, k):
    calls, original = [], polytopes.normal_vector

    def counting(rows):
        calls.append(rows)
        return original(rows)

    monkeypatch.setattr(polytopes, "normal_vector", counting)
    extreme, _ = _hull_core(list(itertools.product((0, 1), repeat=k)))
    assert len(extreme) == 2 ** k
    assert len(calls) == k + 1


@PROPERTY
@given(st.data())
def test_bareiss_det_matches_the_fraction_det(data):
    n = data.draw(st.integers(0, 5))
    denom = data.draw(st.sampled_from([1, 1, 2, 6]))
    entry = st.builds(Q, st.integers(-4, 4), st.just(denom))
    rows = [tuple(data.draw(entry) for _ in range(n)) for _ in range(n)]
    if n >= 2 and data.draw(st.booleans()):  # a singular matrix
        rows[-1] = tuple(a - b for a, b in zip(rows[0], rows[1]))
    assert det(rows) == fraction_det(rows)
    if denom == 1:
        assert det([tuple(int(x) for x in row) for row in rows]) == fraction_det(rows)



# -- planar Minkowski sums ----------------------------------------------------

STORED = ("den", "points", "span_basis", "span_pivots", "facets", "fan")


def hull_of_sums(p, q):
    """`_hull` of the sorted pairwise sums: what `minkowski_sum` must store.
    It is the import-time `_hull`, which `counted_hulls` does not count."""
    den = lcm(p.den, q.den)
    a, b = den // p.den, den // q.den
    return _hull(sorted({tuple(a * x + b * y for x, y in zip(v, w))
                                   for v in p.points for w in q.points}), den)


def assert_sum_is_the_hull(p, q):
    s, h = minkowski_sum(p, q), hull_of_sums(p, q)
    for field in STORED:
        assert getattr(s, field) == getattr(h, field), field
    return s


@st.composite
def plane_bodies(draw, den=None):
    """A rational body in the plane: a point, a segment, a triangle or the
    hull of up to 8 points, over the denominator 1, 2 or 3."""
    den = den or draw(st.sampled_from([1, 2, 3]))
    count = {"point": 1, "segment": 2, "triangle": 3, "polygon": draw(st.integers(4, 8))}[
        draw(st.sampled_from(["point", "segment", "triangle", "polygon"]))]
    coordinate = st.integers(-3, 3)
    return hull([(Q(draw(coordinate), den), Q(draw(coordinate), den)) for _ in range(count)])


@st.composite
def plane_pairs(draw):
    """Two plane bodies: drawn apart, one added to itself, or two parallel
    segments, whose sum is a segment again."""
    kind = draw(st.sampled_from(["apart", "itself", "parallel"]))
    if kind == "apart":
        return draw(plane_bodies()), draw(plane_bodies())
    if kind == "itself":
        p = draw(plane_bodies())
        return p, p
    direction = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -1), (1, 3)]))
    segments = []
    for _ in range(2):
        den = draw(st.sampled_from([1, 2, 3]))
        x, y, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3)), draw(st.integers(1, 3))
        segments.append(hull([(Q(x, den), Q(y, den)),
                              (Q(x + t * direction[0], den), Q(y + t * direction[1], den))]))
    return tuple(segments)


@PROPERTY
@given(plane_pairs())
def test_planar_minkowski_sum_is_the_hull_of_the_sums(pair):
    assert_sum_is_the_hull(*pair)


def counted_hulls(monkeypatch):
    calls, original = [], polytopes._hull

    def counting(points, den):
        calls.append(points)
        return original(points, den)

    monkeypatch.setattr(polytopes, "_hull", counting)
    return calls


@pytest.mark.parametrize("p, q, dim, hulls", [
    ([(0, 0), (2, 1), (1, 3)], [(0, 0), (1, 0), (1, 1), (0, 1)], 2, 0),  # two polygons
    ([(0, 0), (2, 1)], [(0, 1), (1, 0)], 2, 0),                            # crossing segments
    ([(0, 0), (2, 1)], [(1, 1), (2, 1), (0, 3)], 2, 0),                    # segment, triangle
    ([(1, 1)], [(0, 0), (3, 1), (1, 2)], 2, 0),                            # point, triangle
    ([(0, 0), (2, 1)], [(1, 0), (5, 2)], 1, 1),                            # parallel segments
    ([(0, 0), (2, 1)], [(3, 3)], 1, 1),                                    # point, segment
    ([(1, 2)], [(3, 4)], 0, 1),                                            # two points
    ([(0, 0, 0), (1, 0, 0)], [(0, 1, 0), (0, 0, 1)], 2, 1),               # in 3-space
])
def test_only_plane_polygons_skip_the_hull(monkeypatch, p, q, dim, hulls):
    p, q = hull(p), hull(q)
    calls = counted_hulls(monkeypatch)
    assert assert_sum_is_the_hull(p, q).dim == dim
    assert len(calls) == hulls


@pytest.mark.parametrize("blocks", [(1, 2), (2, 1)])
def test_wall_face_subset_sums_are_the_hulls_of_their_sums(monkeypatch, blocks):
    # the moment polytopes of every 2-3 point support on a GL(3) wall face
    # with coordinates 0..2, the bodies of non-diagonal wall-face systems
    space = HorosphericalSpace.quotient(ChamberFace(GroupDescriptor((3,)), (blocks,)))
    points = [(a, b) for a in range(3) for b in range(a + 1)]
    bodies = [moment_polytope(SupportSet(space, s))
              for r in (2, 3) for s in itertools.combinations(points, r)]
    assert {p.dim for p in bodies} == {1, 2}
    calls = counted_hulls(monkeypatch)
    pairs = [assert_sum_is_the_hull(p, q)
             for p, q in itertools.combinations_with_replacement(bodies, 2)]
    fallbacks = len(calls)
    assert 0 < fallbacks < len(pairs)  # parallel segments fall back, the rest do not
    for s, r in zip(pairs[::7], bodies * 3):  # sums of three and four bodies
        assert_sum_is_the_hull(assert_sum_is_the_hull(s, r), s)


# -- the plane's chain against the `Fraction` oracle ---------------------------

def assert_is_the_fraction_hull(p, points):
    """p stores what the oracle gives for the hull of points, field by field,
    and its fan is the pulling fan of its facets' vertex masks."""
    vertices, span_basis, pivots, facets, fan = fraction_hull(points)
    den = lcm(*(x.denominator for v in vertices for x in v))
    assert p.den == den
    assert p.points == tuple(tuple(int(den * x) for x in v) for v in vertices)
    assert tuple(tuple(Q(x, row[c]) for x in row)
                 for row, c in zip(p.span_basis, p.span_pivots)) == span_basis
    assert p.span_pivots == pivots
    assert p.facets == facets
    assert_triangulates(p, facets, fan)
    coords = [tuple(v[j] - p.points[0][j] for j in pivots) for v in p.points]
    masks = [sum(1 << i for i, c in enumerate(coords) if sum(map(mul, n, c)) == den * b)
             for n, b in facets]
    assert p.fan == _pulling_fan(masks, len(p.points), p.dim)


@st.composite
def plane_point_sets(draw):
    """Plane points over the denominator 1, 2 or 3: a few drawn ones, a box
    grid with its interior points and edge midpoints, points on a drawn line,
    between others or past them, and repeats of all of these."""
    den = draw(st.sampled_from([1, 2, 3]))
    coordinate = st.integers(-3, 3)
    pts = [(draw(coordinate), draw(coordinate)) for _ in range(draw(st.integers(0, 4)))]
    x, y = draw(coordinate), draw(coordinate)
    w, h = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    pts += [(x + i, y + j) for i in range(w + 1) for j in range(h + 1)]
    x, y = draw(coordinate), draw(coordinate)
    dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -1), (1, 3)]))
    pts += [(x + t * dx, y + t * dy) for t in draw(st.lists(st.integers(-2, 2), max_size=5))]
    pts += draw(st.lists(st.sampled_from(pts), max_size=4))
    return [(Q(a, den), Q(b, den)) for a, b in draw(st.permutations(pts))]


@PROPERTY
@given(plane_point_sets())
def test_plane_hulls_match_the_fraction_kernel(points):
    assert_is_the_fraction_hull(hull(points), points)


@PROPERTY
@given(plane_pairs())
def test_planar_minkowski_sums_match_the_fraction_kernel(pair):
    p, q = pair
    assert_is_the_fraction_hull(minkowski_sum(p, q), [
        tuple(x + y for x, y in zip(v, w)) for v in p.vertices for w in q.vertices])


# -- segments: the two ends, with no core --------------------------------------

@st.composite
def collinear_point_sets(draw):
    """Two or more distinct points on a line in dimension 1-4 over the
    denominator 1, 2 or 3, shuffled, with repeats."""
    n, den = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    origin = [draw(st.integers(-3, 3)) for _ in range(n)]
    step = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any))
    ts = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=6, unique=True))
    pts = [tuple(Q(o + t * s, den) for o, s in zip(origin, step)) for t in ts]
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    return draw(st.permutations(pts))


@PROPERTY
@given(collinear_point_sets())
def test_segments_are_their_two_ends_with_no_core(points):
    def no_core(coords):
        raise AssertionError("_hull_core was called on a segment")

    with patch.object(polytopes, "_hull_core", no_core):
        p = hull(points)
    assert (p.dim, len(p.points), p.fan) == (1, 2, ((0, 1),))
    assert_is_the_fraction_hull(p, points)


@st.composite
def collinear_sums(draw):
    """A point, or one to three points and segments along one direction in
    dimension 1, 3 or 4, each over the denominator 1, 2 or 3: their
    Minkowski sum is a point or a segment."""
    n = draw(st.sampled_from([1, 3, 4]))
    step = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any))
    bodies = []
    for _ in range(draw(st.integers(1, 3))):
        den = draw(st.integers(1, 3))
        origin = [draw(st.integers(-3, 3)) for _ in range(n)]
        ts = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=2, unique=True))
        bodies.append([tuple(Q(o + t * s, den) for o, s in zip(origin, step)) for t in ts])
    return bodies


@PROPERTY
@given(collinear_sums())
def test_points_and_collinear_sums_are_the_fraction_hull_with_no_core(bodies):
    def no_core(coords):
        raise AssertionError("_hull_core was called on a point or a segment")

    with patch.object(polytopes, "_hull_core", no_core):
        p = reduce(minkowski_sum, map(hull, bodies))
    sums = [tuple(map(sum, zip(*vs))) for vs in itertools.product(*bodies)]
    assert p.dim == (1 if len(set(sums)) > 1 else 0)
    assert_is_the_fraction_hull(p, sums)
