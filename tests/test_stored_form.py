"""Property tests: the stored form of a polytope.

A `Polytope` keeps its vertices as int tuples `points` over one
denominator `den`, the least common denominator of the vertices, and
`vertices` reads them back as rationals.  The form must be canonical
whatever built the polytope: `hull` from rational points, or `minkowski_sum`,
`dilate` and `newton_lift` from stored int points and their denominators.
So must its span: int rows with one positive pivot entry d, coprime to the
entries as a whole, that divided by d are the `Fraction` RREF of the
directions from the first vertex.
"""

from math import gcd, lcm

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_kernel as oracle
from horoindex import (ChamberFace, GroupDescriptor, Q, dilate, hull, minkowski_sum,
                       newton_lift, polytopes)
from horoindex.linalg import vsub
from horoindex.polytopes import _hull

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)

GL3 = GroupDescriptor((3,))
GL3_FACES = (ChamberFace(GL3, ((1, 2),)), ChamberFace(GL3, ((2, 1),)),
             ChamberFace.full_chamber(GL3))


def rationals(denominators):
    return st.builds(Q, st.integers(-6, 6), st.sampled_from(denominators))


@st.composite
def point_sets(draw, dim=None, denominators=(1, 2, 3, 4, 6)):
    if dim is None:
        dim = draw(st.integers(0, 4))
    point = st.tuples(*[rationals(denominators)] * dim)
    return draw(st.lists(point, min_size=1, max_size=7))


@st.composite
def polytope_pairs(draw):
    """Two polytopes in one ambient space, over denominators 2 and 3."""
    dim = draw(st.integers(0, 4))
    p = hull(draw(point_sets(dim, (1, 2))))
    q = hull(draw(point_sets(dim, (1, 3))))
    assume(p.den != q.den)
    return p, q


@PROPERTY
@given(point_sets())
def test_stored_points_are_the_vertices_times_their_denominator(points):
    p = hull(points)
    assert hull(p.vertices) == p
    assert p.den == lcm(*(x.denominator for v in p.vertices for x in v))
    assert p.points == tuple(tuple(p.den * x for x in v) for v in p.vertices)
    assert all(type(x) is int for v in p.points for x in v)


@PROPERTY
@given(polytope_pairs())
def test_minkowski_sum_over_two_denominators(pair):
    p, q = pair
    pairwise = [tuple(x + y for x, y in zip(v, w)) for v in p.vertices for w in q.vertices]
    assert minkowski_sum(p, q) == hull(pairwise)


@PROPERTY
@given(point_sets())
def test_dilate_by_a_third_scales_the_vertices(points):
    p = hull(points)
    third = dilate(p, Q(1, 3))
    assert third.vertices == tuple(tuple(x / 3 for x in v) for v in p.vertices)
    assert third == hull(third.vertices)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.sampled_from(GL3_FACES), st.data())
def test_lift_commutes_with_a_rational_dilation(face, data):
    point = st.tuples(*[st.integers(-2, 3)] * face.dim)
    weights = data.draw(st.lists(point, min_size=1, max_size=3))
    base = hull([tuple(sorted(w, reverse=True)) for w in weights])
    half = Q(1, 2)
    assert newton_lift(face, dilate(base, half)) == dilate(newton_lift(face, base), half)


def assert_span_form(p):
    rows, pivots = p.span_basis, p.span_pivots
    assert all(type(x) is int for row in rows for x in row)
    d = rows[0][pivots[0]] if rows else 1
    assert d > 0 and all(row[c] == d for row, c in zip(rows, pivots))
    assert gcd(d, *(x for row in rows for x in row)) == 1
    base = p.vertices[0]
    assert ([tuple(Q(x, d) for x in row) for row in rows], list(pivots)) == \
        oracle.rref([vsub(v, base) for v in p.vertices[1:]])


@PROPERTY
@given(point_sets())
def test_hull_and_dilate_store_the_rref_over_one_denominator(points):
    p = hull(points)
    assert_span_form(p)
    assert_span_form(dilate(p, Q(2, 3)))


@PROPERTY
@given(polytope_pairs())
def test_minkowski_sums_store_the_rref_over_one_denominator(pair):
    assert_span_form(minkowski_sum(*pair))


@PROPERTY
@given(st.lists(point_sets(2, (1, 2, 3)), min_size=2, max_size=2))
def test_planar_sums_store_the_rref_over_one_denominator(pair):
    assert_span_form(minkowski_sum(hull(pair[0]), hull(pair[1])))


def test_planar_sums_and_their_fallbacks_store_the_same_span_form(monkeypatch):
    segment, parallel = hull([(0, 0), (Q(1, 2), 1)]), hull([(1, 0), (2, 2)])
    triangle = hull([(0, 0), (Q(3, 2), 0), (0, 1)])
    hulls = []
    monkeypatch.setattr(polytopes, "_hull", lambda *a: hulls.append(a) or _hull(*a))
    for p, q, fallback in ((segment, parallel, True), (segment, triangle, False)):
        hulls.clear()
        assert_span_form(minkowski_sum(p, q))
        assert bool(hulls) == fallback


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.sampled_from(GL3_FACES), st.data())
def test_lifts_store_the_rref_over_one_denominator(face, data):
    point = st.tuples(*[st.integers(-2, 3)] * face.dim)
    weights = data.draw(st.lists(point, min_size=1, max_size=3))
    base = hull([tuple(sorted(w, reverse=True)) for w in weights])
    assert_span_form(newton_lift(face, base))
    assert_span_form(newton_lift(face, dilate(base, Q(1, 2))))
