"""Property tests: the lift route against the Minkowski sums of lifts.

`index_report`'s lift route polarizes D -> vol(lift(D)), the second
measure of `spaces._routes(space)`, over the moment polytopes, which is
right only because the Gelfand-Tsetlin lift is Minkowski-linear on the
dominant cone.  These tests check that linearity directly, and compare
the route with the algorithm it replaced: the mixed volume of the lifts
themselves, with every subset sum formed in the lifted space.
"""

from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horoindex import (GENERAL_MODE, AffineLattice, BodySystem, ChamberFace,
                       GroupDescriptor, HorosphericalSpace, SupportSet, hull,
                       index_report, minkowski_sum, mixed_volume, moment_polytope,
                       newton_lift)
from horoindex.spaces import _lift_lattice

PROPERTY = settings(derandomize=True, deadline=None, max_examples=10)


def face(gl_factors, blocks=None, torus=0):
    group = GroupDescriptor(gl_factors, torus)
    if blocks is None:
        return ChamberFace.full_chamber(group)
    return ChamberFace(group, blocks)


# Faces for the linearity check: a torus, one and two GL factors, walls and
# full chambers.
FACES = (
    face((), torus=2),
    face((2,)),
    face((2,), torus=1),
    face((3,), ((1, 2),)),
    face((3,), ((2, 1),)),
    face((3,)),
    face((2, 2)),
    face((2, 1), torus=1),
)

# Spaces for the route comparison, at most four supports each so that the
# lifted-space oracle stays cheap.  General-mode lattices are in face
# coordinates.
SPACES = (
    HorosphericalSpace.quotient(face((), torus=2)),
    HorosphericalSpace.quotient(face((2,))),
    HorosphericalSpace.quotient(face((2,), torus=1)),
    HorosphericalSpace.quotient(face((3,), ((1, 2),))),
    HorosphericalSpace.quotient(face((2, 2), ((1, 1), (2,)))),
    HorosphericalSpace(face((), torus=2), AffineLattice((0, 0), ((1, 1),)), GENERAL_MODE),
    HorosphericalSpace(face((2,)), AffineLattice((0, 0), ((1, 0),)), GENERAL_MODE),
    HorosphericalSpace(face((2,), torus=1), AffineLattice((0, 0, 0), ((0, 0, 2),)),
                       GENERAL_MODE),
    HorosphericalSpace(face((3,), ((1, 2),)), AffineLattice((0, 0), ((1, 0),)),
                       GENERAL_MODE),
    HorosphericalSpace(face((2, 2), ((1, 1), (2,))), AffineLattice((0, 0, 0), ()),
                       GENERAL_MODE),
)


@st.composite
def dominant_points(draw, f, low=0, high=2):
    """A dominant integral point of face f, in face coordinates."""
    coords = []
    for sizes in f.blocks:
        values = draw(st.lists(st.integers(low, high), min_size=len(sizes),
                               max_size=len(sizes)))
        coords += sorted(values, reverse=True)
    coords += draw(st.lists(st.integers(-1, 1), min_size=f.group.torus_rank,
                            max_size=f.group.torus_rank))
    return tuple(coords)


@st.composite
def base_polytopes(draw, f):
    return hull(draw(st.lists(dominant_points(f), min_size=1, max_size=2)))


@st.composite
def supports(draw, space):
    """One or two dominant points in quotient mode; in general mode, one to
    three points of the Lambda(H)-coset through a dominant base point."""
    f = space.face
    if space.mode != GENERAL_MODE:
        return SupportSet(space, tuple(draw(st.lists(dominant_points(f), min_size=1,
                                                     max_size=2))))
    base = draw(dominant_points(f, low=1, high=3))
    lattice = space.lambda_h
    points = [base]
    for _ in range(draw(st.integers(0, 2))):
        steps = draw(st.lists(st.integers(-1, 1), min_size=lattice.rank,
                              max_size=lattice.rank))
        point = tuple(x + sum(c * b[i] for c, b in zip(steps, lattice.basis))
                      for i, x in enumerate(base))
        if f.face_contains_coords(point):
            points.append(point)
    return SupportSet(space, tuple(points))


def lifted_mixed_volume_index(space, system):
    """n! times the mixed volume of the lifts, summed in the lifted space."""
    lifts = tuple(newton_lift(space.face, moment_polytope(s)) for s in system)
    return factorial(len(system)) * mixed_volume(BodySystem(lifts, _lift_lattice(space)))


@pytest.mark.parametrize("f", FACES)
@PROPERTY
@given(data=st.data())
def test_lift_is_minkowski_linear(f, data):
    a, b = data.draw(base_polytopes(f)), data.draw(base_polytopes(f))
    assert newton_lift(f, minkowski_sum(a, b)) == minkowski_sum(newton_lift(f, a),
                                                                 newton_lift(f, b))


@pytest.mark.parametrize("space", SPACES)
@PROPERTY
@given(data=st.data())
def test_lift_route_is_the_mixed_volume_of_the_lifts(space, data):
    system = [data.draw(supports(space)) for _ in range(space.num_supports)]
    assert index_report(space, system).lift_route == lifted_mixed_volume_index(space, system)
