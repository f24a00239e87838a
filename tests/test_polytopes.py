import itertools
import random
from operator import mul

import pytest

from horoindex import (GENERAL_MODE, AffineLattice, ChamberFace, DomainError,
                       GroupDescriptor, HorosphericalSpace, Polynomial, Polytope, Q,
                       SupportSet, completion_support, dilate, hull, integrate,
                       lattice_points, minkowski_sum, polytopes, triangulation, volume)
from horoindex.linalg import rank, vsub

STD = {n: AffineLattice.standard(n) for n in range(1, 5)}


def random_points(rng, count, dim, lo=-4, hi=4):
    return [tuple(Q(rng.randint(lo, hi)) for _ in range(dim)) for _ in range(count)]


def brute_force_extreme(points):
    """A point is extreme iff it is not in the hull of the others.

    Uses exact LP-free test: p in conv(S) iff some affinely independent
    subset certificate exists; here we just recurse on hull membership.
    """
    pts = sorted(set(points))
    out = []
    for p in pts:
        others = [q for q in pts if q != p]
        if not others or not hull(others).contains(p):
            out.append(p)
    return out


def test_point_hull():
    p = hull([(1, 2), (1, 2)])
    assert p.dim == 0
    assert p.vertices == ((Q(1), Q(2)),)
    assert volume(p, STD[2]) == 1


def test_segment_hull_prunes_interior():
    p = hull([(0, 0), (1, 1), (3, 3)])
    assert p.dim == 1
    assert p.vertices == ((Q(0), Q(0)), (Q(3), Q(3)))


def test_pentagon_area():
    pts = [(0, 0), (2, 0), (3, 1), (1, 3), (0, 2), (1, 1)]
    p = hull(pts)
    assert (Q(1), Q(1)) not in p.vertices
    # shoelace by hand on (0,0),(2,0),(3,1),(1,3),(0,2): area 6
    assert volume(p, STD[2]) == 6


def shoelace(vertices):
    """Exact area of a convex polygon given in any order."""
    import functools
    cx = sum((v[0] for v in vertices), Q(0)) / len(vertices)
    cy = sum((v[1] for v in vertices), Q(0)) / len(vertices)

    def compare(a, b):
        ax, ay = a[0] - cx, a[1] - cy
        bx, by = b[0] - cx, b[1] - cy
        ha = 0 if (ay > 0 or (ay == 0 and ax > 0)) else 1
        hb = 0 if (by > 0 or (by == 0 and bx > 0)) else 1
        if ha != hb:
            return ha - hb
        cross = ax * by - ay * bx
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    ordered = sorted(vertices, key=functools.cmp_to_key(compare))
    total = Q(0)
    for a, b in zip(ordered, ordered[1:] + ordered[:1]):
        total += a[0] * b[1] - b[0] * a[1]
    return abs(total) / 2


def test_random_polygon_area_matches_shoelace():
    rng = random.Random(3)
    for _ in range(25):
        pts = random_points(rng, rng.randint(3, 9), 2)
        p = hull(pts)
        if p.dim < 2:
            continue
        assert volume(p, STD[2]) == shoelace(list(p.vertices))


def test_hull_vertices_match_brute_force():
    rng = random.Random(5)
    for _ in range(20):
        dim = rng.randint(1, 3)
        pts = random_points(rng, rng.randint(2, 8), dim, -3, 3)
        p = hull(pts)
        assert list(p.vertices) == brute_force_extreme(pts)


def test_hull_idempotent():
    rng = random.Random(9)
    for _ in range(20):
        dim = rng.randint(1, 4)
        pts = random_points(rng, rng.randint(2, 8), dim, -2, 2)
        p = hull(pts)
        q = hull(p.vertices)
        assert q == p
        assert q.facets == p.facets


def test_facets_valid():
    rng = random.Random(13)
    for _ in range(15):
        dim = rng.randint(2, 3)
        pts = random_points(rng, rng.randint(4, 9), dim)
        p = hull(pts)
        for pt in pts:
            assert p.contains(pt)
        # every facet is tight on at least dim vertices
        coords = [p.span_coordinates(v) for v in p.vertices]
        for n, b in p.facets:
            tight = [c for c in coords if sum(map(mul, n, c)) == b]
            assert len(tight) >= p.dim
            assert all(sum(map(mul, n, c)) <= b for c in coords)


def test_cube_structure():
    cube = hull(list(itertools.product((0, 1), repeat=3)))
    assert len(cube.vertices) == 8
    assert len(cube.facets) == 6
    assert volume(cube, STD[3]) == 1
    assert len(triangulation(cube)) == 6


def test_volume_translation_invariant_and_scaling():
    rng = random.Random(17)
    for _ in range(10):
        dim = rng.randint(1, 3)
        pts = random_points(rng, dim + 3, dim)
        p = hull(pts)
        k = p.dim
        shift = tuple(Q(rng.randint(-3, 3)) for _ in range(dim))
        shifted = hull([tuple(x + s for x, s in zip(v, shift)) for v in p.vertices])
        assert volume(shifted, STD[dim]) == volume(p, STD[dim])
        assert volume(dilate(p, 3), STD[dim]) == 3 ** k * volume(p, STD[dim])


def test_minkowski_sum_of_segments():
    s1 = hull([(0, 0), (1, 0)])
    s2 = hull([(0, 0), (0, 1)])
    square = minkowski_sum(s1, s2)
    assert len(square.vertices) == 4
    assert volume(square, STD[2]) == 1


def test_minkowski_dilation_compatibility():
    rng = random.Random(21)
    for _ in range(8):
        pts = random_points(rng, 5, 2)
        p = hull(pts)
        assert minkowski_sum(p, p) == dilate(p, 2)


def test_triangulation_covers_volume():
    rng = random.Random(23)
    for _ in range(10):
        dim = rng.randint(2, 3)
        pts = random_points(rng, dim + 4, dim)
        p = hull(pts)
        if p.dim < dim:
            continue
        from horoindex.linalg import det
        total = Q(0)
        for simplex in triangulation(p):
            rows = [vsub(v, simplex[0]) for v in simplex[1:]]
            total += abs(det(rows))
        import math
        assert total / math.factorial(dim) == volume(p, STD[dim])


def test_lower_dimensional_volume_normalization():
    # segment from (0,0) to (2,2): two steps of the diagonal sublattice
    seg = hull([(0, 0), (2, 2)])
    assert volume(seg, STD[2]) == 2
    # triangle in the plane x+y+z=1 inside R^3
    tri = hull([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert tri.dim == 2
    assert volume(tri, STD[3]) == Q(1, 2)


def test_span_outside_the_lattice_direction_space_is_rejected():
    # the diagonal segment leaves the line spanned by (1, 0)
    seg = hull([(0, 0), (1, 1)])
    axis = AffineLattice((0, 0), ((1, 0),))
    with pytest.raises(DomainError):
        volume(seg, axis)
    with pytest.raises(DomainError):
        integrate(Polynomial.constant(1, 2), seg, axis)


def test_lattice_points_square():
    square = hull([(0, 0), (2, 0), (0, 2), (2, 2)])
    pts = lattice_points(square, STD[2])
    assert len(pts) == 9


def test_lattice_points_sublattice():
    square = hull([(0, 0), (2, 0), (0, 2), (2, 2)])
    even = AffineLattice((0, 0), ((2, 0), (0, 1)))
    pts = lattice_points(square, even)
    assert sorted(pts) == [(x, y) for x in (0, 2) for y in (0, 1, 2)]


def test_lattice_points_coset():
    seg = hull([(0,), (4,)])
    odd = AffineLattice((1,), ((2,),))
    assert lattice_points(seg, odd) == [(1,), (3,)]


def test_lattice_points_contains_vertices():
    rng = random.Random(29)
    for _ in range(10):
        dim = rng.randint(1, 3)
        pts = random_points(rng, 5, dim, 0, 3)
        p = hull(pts)
        inside = set(lattice_points(p, STD[dim]))
        assert set(pts) <= inside


def test_lattice_points_make_no_membership_tests(monkeypatch):
    def refuse(self, point):
        raise AssertionError("lattice_points called Polytope.contains")

    monkeypatch.setattr(Polytope, "contains", refuse)
    simplex = hull([(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3)])
    assert len(lattice_points(simplex, STD[3])) == 20


def test_lattice_points_slice_emptied_by_a_facet_parallel_to_the_last_axis():
    # a triangle times a segment: the facet x + y <= 2 has last entry 0, and
    # empties the slices (x, y) = (1, 2), (2, 1), (2, 2) of the bounding box
    prism = hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 1), (2, 0, 1), (0, 2, 1)])
    expected = [(x, y, z) for x in range(3) for y in range(3) for z in range(2)
                if x + y <= 2]
    assert lattice_points(prism, STD[3]) == expected


def test_lattice_points_of_a_segment_through_a_non_lattice_midpoint():
    seg = hull([(0, 0, 0), (2, 1, 0)])
    assert lattice_points(seg, STD[3]) == [(0, 0, 0), (2, 1, 0)]


def test_completion_support_on_a_coset_of_an_index_two_lattice():
    face = ChamberFace.full_chamber(GroupDescriptor((2,), 0))
    lam = AffineLattice((0, 0), ((1, 1), (1, -1)))  # x + y even
    space = HorosphericalSpace(face, lam, GENERAL_MODE)
    # the supports lie in the odd coset (1, 0) + lam
    triangle = SupportSet(space, ((1, 0), (3, 0), (3, 2)))
    assert completion_support(triangle).weights == ((1, 0), (2, 1), (3, 0), (3, 2))
    # lower-dimensional in lattice coordinates: (0, 0)-(3, 1), no point between
    segment = SupportSet(space, ((1, 0), (5, 2)))
    assert completion_support(segment).weights == ((1, 0), (5, 2))


def test_empty_hull_rejected():
    with pytest.raises(DomainError):
        hull([])


def test_dilate_zero_gives_origin():
    p = hull([(1, 1), (2, 3)])
    z = dilate(p, 0)
    assert z.vertices == ((Q(0), Q(0)),)


def test_dilate_rejects_a_float_factor():
    tri = hull([(0, 0), (2, 0), (2, 1)])
    with pytest.raises(DomainError, match=r"not the float 0\.1"):
        dilate(tri, 0.1)
    assert dilate(tri, Q(1, 2)).vertices == ((0, 0), (1, 0), (1, Q(1, 2)))


@pytest.mark.parametrize("points", [
    [(0, 0), (Q(1, 2), 1), (1, Q(1, 3))],
    [(0, 0, 0), (1, 0, 2), (0, 1, 1), (1, 1, Q(5, 2))],
])
def test_dilate_by_an_int_makes_no_fraction(monkeypatch, points):
    p = hull(points)
    tripled = hull([tuple(3 * x for x in v) for v in p.vertices])

    def no_fraction(*args):
        raise AssertionError("dilate made a Fraction")

    monkeypatch.setattr(polytopes, "Q", no_fraction)
    d = dilate(p, 3)
    assert (d.den, d.points, d.span_basis, d.span_pivots, d.facets, d.fan) == (
        tripled.den, tripled.points, tripled.span_basis, tripled.span_pivots,
        tripled.facets, tripled.fan)


def test_hull_rejects_a_float_coordinate():
    with pytest.raises(DomainError, match=r"not the float 0\.1"):
        hull([(0.1,), (1,)])
    assert hull([(Q(1, 10),), (1,)]).vertices == ((Q(1, 10),), (Q(1),))


@pytest.mark.parametrize("point", [(0, 0, 7), (0,)])
def test_point_of_the_wrong_length_is_rejected(point):
    tri = hull([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(DomainError):
        tri.contains(point)
    with pytest.raises(DomainError):
        tri.span_coordinates(point)


def test_rational_hull_has_integer_facets_in_span_coordinates():
    # the triangle (0,0), (1/2,0), (0,1/3): 2x + 3y <= 1 in unscaled coordinates
    tri = hull([(0, 0), (Q(1, 2), 0), (0, Q(1, 3))])
    assert tri.facets == (((-1, 0), 0), ((0, -1), 0), ((2, 3), 1))
    assert volume(tri, STD[2]) == Q(1, 12)
    assert tri.contains((Q(1, 4), Q(1, 6)))
    assert not tri.contains((Q(1, 4), Q(1, 5)))
