"""Property tests of the Hilbert route's slice sums and of `dilate` by scaling.

`hilbert_function` hulls each support once, dilates it by scaling the
stored points and facets, and sums the Weyl dimensions over each slice of
the lattice points, an arithmetic progression, from a few values
(`polynomials.progression_sum`).  Each piece is checked against what it
replaces: the Hilbert function against the expanded `Fraction` sum over the
hull of the dilated weights (`expanded_weyl.py`), a progression sum against
the sum of its terms, `dilate` against `_hull` of the scaled points, and the
lattice points of a lower-dimensional body against `contains` on its
bounding box.
"""

from itertools import product
from math import ceil, floor, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expanded_weyl import hilbert_function_by_expansion
from horoindex import (AffineLattice, ChamberFace, GroupDescriptor, HorosphericalSpace, Q,
                       SupportSet, dilate, hilbert_function, hull, lattice_points)
from horoindex import polytopes, spaces
from horoindex.polynomials import progression_sum

def quotient(gl, torus=0):
    return HorosphericalSpace.quotient(ChamberFace.full_chamber(GroupDescriptor(gl, torus)))


# 3-D faces (GL(3), GL(2) x T^1), a torus, and GL(2) x GL(2)
SPACES = (quotient((3,)), quotient((2,), 1), quotient((), 2), quotient((2, 2)))


@st.composite
def dominant_point(draw, face, high=2):
    coords = []
    for sizes in face.blocks:
        coords += sorted(draw(st.lists(st.integers(0, high), min_size=len(sizes),
                                       max_size=len(sizes))), reverse=True)
    coords += draw(st.lists(st.integers(-1, 1), min_size=face.group.torus_rank,
                            max_size=face.group.torus_rank))
    return tuple(coords)


@st.composite
def supports(draw):
    """A point, a segment or a triangle of dominant weights on a face."""
    space = draw(st.sampled_from(SPACES))
    size = draw(st.integers(1, 3))
    weights = draw(st.lists(dominant_point(space.face), min_size=size, max_size=size,
                            unique=True))
    return space, SupportSet(space, tuple(weights))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(supports(), st.integers(0, 6))
def test_hilbert_function_equals_the_expanded_sum(case, k):
    space, support = case
    value = hilbert_function(space, support, k)
    assert type(value) is int
    assert value == hilbert_function_by_expansion(space, support, k)


def test_a_segment_with_a_non_lattice_midpoint_skips_it():
    # (0, 0, 0)-(2, 1, 0): moving the first coordinate by 1 moves the second
    # by 1/2, so the slice's step is (2, 1, 0)
    space = SPACES[0]
    segment = SupportSet(space, ((0, 0, 0), (2, 1, 0)))
    for k in range(5):
        assert hilbert_function(space, segment, k) == hilbert_function_by_expansion(
            space, segment, k)


forms_in = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.tuples(*[st.integers(-2, 3)] * n), st.integers(-3, 6)),
             max_size=4)))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(forms_in, st.data(), st.integers(1, 8), st.integers(1, 4), st.booleans())
def test_progression_sum_is_the_sum_of_its_terms(case, data, count, divisor, positive):
    n, forms = case
    first = data.draw(st.tuples(*[st.integers(-3, 4)] * n))
    step = data.draw(st.tuples(*[st.integers(-2, 3)] * n))

    def at(a, b, t):
        return sum(c * (x + t * s) for c, x, s in zip(a, first, step)) + b

    if positive:  # each form raised until it is positive at both ends
        forms = [(a, b + max(0, 1 - at(a, b, 0), 1 - at(a, b, count - 1))) for a, b in forms]
    values = [prod(at(a, b, t) for a, b in forms) for t in range(count)]
    certain = all(v > 0 and v % divisor == 0 for v in values)
    result = progression_sum(forms, first, step, count, divisor)
    if positive:
        assert (result is not None) == certain
    if result is not None:
        assert certain and result == sum(values) // divisor


def test_progression_sum_with_fewer_points_than_the_degree():
    # F = x (x + 1) (x + 2) at x = 5 and 7 only: count 2 < deg F + 1 = 4
    forms = (((1,), 0), ((1,), 1), ((1,), 2))
    assert progression_sum(forms, (5,), (2,), 2) == 5 * 6 * 7 + 7 * 8 * 9
    assert progression_sum(forms, (5,), (2,), 2, divisor=6) == (5 * 6 * 7 + 7 * 8 * 9) // 6
    assert progression_sum(forms, (-1,), (2,), 2) is None  # a form is 0 at x = -1


def rationals(denominators):
    return st.builds(Q, st.integers(-4, 4), st.sampled_from(denominators))


@st.composite
def bodies(draw):
    """Hulls of 1-7 points in dimension 1-4, rational or not; few points or a
    repeated coordinate make lower-dimensional ones."""
    dim = draw(st.integers(1, 4))
    coordinate = draw(st.sampled_from([st.integers(-3, 3), rationals((1, 2, 3))]))
    points = draw(st.lists(st.tuples(*[coordinate] * dim), min_size=1, max_size=7))
    if draw(st.booleans()):
        points = [p[:-1] + (p[0],) for p in points]  # the last coordinate copies the first
    return hull(points)


factors = st.one_of(st.integers(0, 3), st.builds(Q, st.integers(0, 6), st.integers(1, 4)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(bodies(), factors)
def test_dilate_matches_the_hull_of_the_scaled_points(p, k):
    k = Q(k)
    u, v = k.numerator, k.denominator
    expected = polytopes._hull(sorted({tuple(u * x for x in pt) for pt in p.points}),
                               v * p.den)
    got = dilate(p, k)
    assert (got.den, got.points) == (expected.den, expected.points)
    assert (got.span_basis, got.span_pivots) == (expected.span_basis, expected.span_pivots)
    assert got.facets == expected.facets
    assert got.fan == expected.fan


@st.composite
def flat_bodies(draw):
    """Bodies of dimension < n in dimension n = 2-3: an integer point plus
    rational multiples of 1 to n - 1 integer directions, at times moved off
    the lattice, so that their span rows have denominators."""
    dim = draw(st.integers(2, 3))
    q0 = draw(st.tuples(*[st.integers(-1, 1)] * dim))
    directions = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=1,
                               max_size=dim - 1))
    scale = st.sampled_from([Q(1, 2), Q(2, 3), 1, Q(3, 2), 2])
    points = [q0] + [tuple(a + draw(scale) * u for a, u in zip(q0, d)) for d in directions]
    shift = draw(st.sampled_from([0, 0, Q(1, 2)]))
    return hull([(p[0] + shift,) + p[1:] for p in points])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(flat_bodies())
# span rows (4, 0, 1), (0, 4, 4) over 4: the last row's step is (0, 1, 1), not 4 times it
@example(hull([(0, 0, 0), (4, 0, 1), (0, 2, 2)]))
def test_lattice_points_of_a_flat_body_are_the_integer_points_in_it(p):
    box = [range(floor(min(v[i] for v in p.vertices)), ceil(max(v[i] for v in p.vertices)) + 1)
           for i in range(p.ambient_dim)]
    expected = [x for x in product(*box) if p.contains(x)]
    assert lattice_points(p, AffineLattice.standard(p.ambient_dim)) == expected


def test_dilate_and_a_repeated_hilbert_call_take_no_hull(monkeypatch):
    space = SPACES[0]
    support = SupportSet(space, ((0, 0, 0), (2, 1, 0), (2, 2, 2), (3, 1, 1)))
    first = hilbert_function(space, support, 1)
    p = hull([(0, 0, 0), (2, 1, 0), (Q(1, 2), 0, 1)])

    def no_hull(coords):
        raise AssertionError("_hull_core was called")

    monkeypatch.setattr(polytopes, "_hull_core", no_hull)
    assert dilate(p, 3).vertices == tuple(tuple(3 * x for x in pt) for pt in p.vertices)
    assert dilate(p, Q(2, 5)).dim == 2
    assert hilbert_function(space, support, 1) == first
    assert [hilbert_function(space, support, k) for k in range(3)][:2] == [1, first]


@pytest.mark.parametrize("memo", ["_bodies", "_moments"])
def test_the_body_memo_stays_within_its_bound(monkeypatch, memo):
    # the Hilbert function's lattice bodies, and the moment polytopes they come from
    space = SPACES[1]
    monkeypatch.setattr(spaces, "_MEMO_BOUND", 2)
    spaces.memo_clear()
    for top in range(1, 5):
        support = SupportSet(space, ((0, 0, 0), (top, 0, 1)))
        hilbert_function(space, support, 2)
        spaces.moment_polytope(support)
        assert len(getattr(spaces, memo)) <= 2
    assert len(getattr(spaces, memo)) == 2
    spaces.memo_clear()
    assert not getattr(spaces, memo)
