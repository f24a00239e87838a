"""Property tests of the kernels that measure a Minkowski subset sum.

* `_simplices` takes the jacobians of a whole fan in one `determinants`
  call, one elimination per simplex; each jacobian must be the `Fraction`
  determinant of its simplex's edges at the span pivots, on every kind of
  body the library builds.
* The integral route integrates the top Weyl term as the product of the
  linear parts of `dimension_forms`, never expanded; it must give what the
  expanded polynomial gives to `integrate` and to the expansion integrator.
* `_pulling_fan` and `_from_planes`' facet selection are memoized by their
  masks; a memoized fan must be the fan computed afresh, and an input that
  raises must raise on every call.
"""

from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanded_integral import expanded_integral
from fraction_kernel import fraction_det
from horoindex import (GENERAL_MODE, AffineLattice, DomainError, HorosphericalSpace, Q,
                       dilate, hull, integrate, minkowski_sum, newton_lift, restricted_weyl,
                       volume)
from horoindex import polytopes, spaces
from horoindex.linalg import primitive
from horoindex.polytopes import _from_planes, _pulling_fan, _simplices
from test_lift_builder import FACES, bases, lattices

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)

# faces whose lifts have dimension at most 5: GL(2), GL(2) x T^1, the GL(3)
# walls, a GL(4) face and T^2
LIFT_FACES = [FACES[i] for i in (0, 1, 2, 3, 6, 13)]


@st.composite
def point_bodies(draw, n):
    """A body of dimension m <= n, mostly m = n, in dimension n over the
    denominator 1-3: the hull of a frame, an origin and its moves along m
    independent directions, and up to 4 more points in their span."""
    den = draw(st.integers(1, 3))
    m = n - draw(st.integers(0, n))
    origin = [draw(st.integers(-3, 3)) for _ in range(n)]
    dirs = [[draw(st.integers(-2, 2)) if j < i else int(i == j) for j in range(n)]
            for i in range(m)]  # independent: unit at j = i, zero past it
    frame = [[draw(st.sampled_from([-2, -1, 1, 2])) * int(i == k) for i in range(m)]
             for k in range(m)]
    extra = [[draw(st.integers(-2, 2)) for _ in range(m)] for _ in range(draw(st.integers(0, 4)))]
    return hull([tuple(Q(o + sum(ti * d[j] for ti, d in zip(t, dirs)), den)
                       for j, o in enumerate(origin))
                 for t in [[0] * m] + frame + extra])


@st.composite
def bodies(draw):
    """A hull, a Minkowski sum, a dilation or a Gelfand-Tsetlin lift, of
    dimension 0-5 in an ambient space of dimension 1-5."""
    kind = draw(st.sampled_from(["hull", "sum", "dilate", "lift"]))
    if kind == "lift":
        f = draw(st.sampled_from(LIFT_FACES))
        return newton_lift(f, draw(bases(f)))
    n = draw(st.sampled_from([5, 4, 3, 2, 1]))
    p = draw(point_bodies(n))
    if kind == "sum":
        return minkowski_sum(p, draw(point_bodies(n)))
    if kind == "dilate":
        return dilate(p, Q(draw(st.integers(1, 5)), draw(st.integers(1, 4))))
    return p


@PROPERTY
@given(bodies())
def test_each_jacobian_is_the_fraction_det_of_its_edges(p):
    assert p.dim <= 5
    pivots = p.span_pivots
    # a full-rank lattice of the ambient space, on which every body has a cell
    for lattice in lattices(p.ambient_dim):
        scale, unit, jacs = _simplices(p, lattice)
        assert len(jacs) == len(p.fan)
        for simplex, jac in zip(p.fan, jacs):
            apex = p.points[simplex[0]]
            edges = [[Q(p.points[i][j] - apex[j]) for j in pivots] for i in simplex[1:]]
            assert jac == abs(fraction_det(edges)) > 0
        cell = abs(fraction_det([[Q(m[j]) for j in pivots]
                                 for m in lattice.direction_sublattice(list(p.span_basis))]))
        assert (scale, unit) == (p.den, cell * p.den ** p.dim)
        assert volume(p, lattice) == Q(sum(jacs), unit * factorial(p.dim))


def measure_lattices(f, base):
    """(lattice, mode) pairs on the face: Z^n in quotient mode, the index-2
    2Z x Z^(n-1) in general mode, and for a segment base a rank-1 Lambda(H)
    along it, twice its primitive direction."""
    standard, index_two = lattices(f.dim)
    out = [(standard, "quotient_by_commutator"), (index_two, GENERAL_MODE)]
    if base.dim == 1:
        step = tuple(2 * x for x in primitive(base.span_basis[0]))
        out.append((AffineLattice((0,) * f.dim, (step,)), GENERAL_MODE))
    return out


@pytest.mark.parametrize("f", FACES)
@settings(derandomize=True, deadline=None, max_examples=30)
@given(data=st.data())
def test_the_forms_integral_is_the_expanded_integral(f, data):
    base = data.draw(bases(f))
    phi = restricted_weyl(f)[1]
    for lattice, mode in measure_lattices(f, base):
        space = HorosphericalSpace(f, lattice, mode)
        _, route = spaces._integral_route(space)
        expanded = integrate(phi, base, lattice)
        assert expanded == expanded_integral(phi, base, lattice)
        assert route(base) == (expanded if base.dim >= lattice.rank else 0)


@PROPERTY
@given(bodies())
def test_a_memoized_fan_is_the_fan_computed_afresh(p):
    coords = [tuple(v[j] - p.points[0][j] for j in p.span_pivots) for v in p.points]
    masks = [sum(1 << i for i, c in enumerate(coords) if sum(a * x for a, x in zip(n, c))
                 == p.den * b) for n, b in p.facets]
    memoized = _pulling_fan(masks, len(p.points), p.dim)
    assert _pulling_fan(iter(masks[::-1]), len(p.points), p.dim) is memoized
    polytopes._fan.cache_clear()
    assert _pulling_fan(masks, len(p.points), p.dim) == memoized == p.fan


def test_a_point_that_is_not_a_vertex_raises_on_every_call():
    # (1, 0) lies inside the edge y = 0 of the triangle (0, 0), (2, 0), (0, 1)
    points = [(0, 0), (0, 1), (1, 0), (2, 0)]
    planes = [((-1, 0), 0), ((0, -1), 0), ((1, 2), 2)]
    for _ in range(2):
        with pytest.raises(DomainError, match="not a vertex"):
            _from_planes(points, 1, planes)
    triangle = _from_planes([(0, 0), (0, 1), (2, 0)], 1, planes)
    assert triangle.fan == hull([(0, 0), (0, 1), (2, 0)]).fan == ((0, 1, 2),)
    assert polytopes._facet_masks.cache_info().currsize >= 1
