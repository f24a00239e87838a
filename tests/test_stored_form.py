"""Property tests: the stored form of a polytope.

A `Polytope` keeps its vertices as int tuples `points` over one
denominator `den`, the least common denominator of the vertices, and
`vertices` reads them back as rationals.  The form must be canonical
whatever built the polytope: `hull` from rational points, or `minkowski_sum`,
`dilate` and `newton_lift` from stored int points and their denominators.
"""

from math import lcm

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from horoindex import (ChamberFace, GroupDescriptor, Q, dilate, hull, minkowski_sum,
                       newton_lift)

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
