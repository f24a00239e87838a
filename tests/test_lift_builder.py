"""Gelfand-Tsetlin lifts built from their vertices and inequalities.

`newton_lift` knows both descriptions of a lift: the vertices of the
fibers over the base's vertices, and the base's facets with the
interlacing rows.  `polytopes._from_planes` builds the polytope from them
with no hull.  The oracle here is the hull of the same candidate points:
both must give the same vertices, denominator, span, facets, fan and
volumes.

The memo of subset-sum measures in `spaces` rests on both measures of a
base, the integral of the top Weyl term and the volume of its lift, being
unchanged by a central translation; the tests below check that premise on
the same faces and bases, and that a translation off the center does move
the integral.
"""

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

import block_walk
from horoindex import (AffineLattice, ChamberFace, DomainError, GroupDescriptor, Q,
                       dilate, hull, integrate, newton_lift, pattern_positions,
                       restricted_weyl, volume)
from horoindex import polytopes
from horoindex.gelfand_tsetlin import fiber_vertices, free_pattern_entries, interlacing_rows
from horoindex.polytopes import _from_planes
from interlacing import gt_inequalities

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)


def face(gl_factors, blocks=None, torus=0):
    group = GroupDescriptor(gl_factors, torus)
    if blocks is None:
        return ChamberFace.full_chamber(group)
    return ChamberFace(group, blocks)


# GL(2); GL(3) walls and chamber; GL(4) faces; GL(2) x GL(2); tori
FACES = (
    face((2,)),
    face((2,), torus=1),
    face((3,), ((1, 2),)),
    face((3,), ((2, 1),)),
    face((3,)),
    face((3,), ((3,),)),
    face((4,), ((1, 3),)),
    face((4,), ((2, 2),)),
    face((4,), ((1, 1, 2),)),
    face((4,), ((2, 1, 1),)),
    face((2, 2)),
    face((2, 2), ((1, 1), (2,))),
    face((2, 1), torus=1),
    face((), torus=2),
)


@st.composite
def dominant_points(draw, f):
    coords = []
    for sizes in f.blocks:
        values = draw(st.lists(st.integers(0, 3), min_size=len(sizes), max_size=len(sizes)))
        coords += sorted(values, reverse=True)
    coords += draw(st.lists(st.integers(-2, 2), min_size=f.group.torus_rank,
                            max_size=f.group.torus_rank))
    return tuple(coords)


@st.composite
def bases(draw, f):
    """A base polytope in face coordinates: the hull of a few dominant
    points, or of points on a line through one (a lower-dimensional base,
    as in general mode), dilated by a rational factor or not."""
    if draw(st.booleans()):
        points = draw(st.lists(dominant_points(f), min_size=1, max_size=5))
    else:
        start, step = draw(dominant_points(f)), draw(dominant_points(f))
        points = [tuple(a + t * b for a, b in zip(start, step))
                  for t in draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))]
    base = hull(points)
    if draw(st.booleans()):
        base = dilate(base, Q(draw(st.integers(1, 5)), draw(st.integers(1, 4))))
    return base


def oracle(f, base):
    """The hull of every fiber vertex over every base vertex."""
    return hull([v + w for v in base.vertices for w in fiber_vertices(f, v)])


@pytest.mark.parametrize("f", FACES)
@PROPERTY
@given(data=st.data())
def test_lift_matches_the_hull_of_its_candidate_points(f, data):
    base = data.draw(bases(f))
    lift, expected = newton_lift(f, base), oracle(f, base)
    assert (lift.points, lift.den) == (expected.points, expected.den)
    assert (lift.span_basis, lift.span_pivots) == (expected.span_basis, expected.span_pivots)
    assert lift.facets == expected.facets
    assert lift.fan == expected.fan
    for lattice in lattices(lift.ambient_dim):
        assert volume(lift, lattice) == volume(expected, lattice)


def lattices(n):
    """Z^n and its index-2 sublattice 2Z x Z^(n-1)."""
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return AffineLattice.standard(n), AffineLattice((0,) * n, [(2,) + unit[0][1:]] + unit[1:])


def moved(base, t):
    return hull([tuple(x + y for x, y in zip(v, t)) for v in base.vertices])


@st.composite
def central_vectors(draw, f):
    """An integer vector along the center: a constant per GL factor on all
    of its blocks, and any integers on the torus."""
    t = []
    for sizes in f.blocks:
        t += [draw(st.integers(-3, 3))] * len(sizes)
    return tuple(t) + tuple(draw(st.lists(st.integers(-3, 3), min_size=f.group.torus_rank,
                                          max_size=f.group.torus_rank)))


@pytest.mark.parametrize("f", FACES)
@settings(derandomize=True, deadline=None, max_examples=50)
@given(data=st.data())
def test_measures_are_unchanged_by_a_central_translation(f, data):
    base, t = data.draw(bases(f)), data.draw(central_vectors(f))
    phi, there = restricted_weyl(f)[1], moved(base, t)
    for lattice in lattices(f.dim):
        assert integrate(phi, there, lattice) == integrate(phi, base, lattice)
    lift, lift_there = newton_lift(f, base), newton_lift(f, there)
    for lattice in lattices(lift.ambient_dim):
        assert volume(lift_there, lattice) == volume(lift, lattice)


@pytest.mark.parametrize("f", [f for f in FACES if any(len(b) > 1 for b in f.blocks)])
def test_a_translation_off_the_center_moves_the_integral(f):
    phi, lattice = restricted_weyl(f)[1], AffineLattice.standard(f.dim)

    def moves(case):
        base, t = case
        return integrate(phi, moved(base, t), lattice) != integrate(phi, base, lattice)

    off_center = st.lists(st.integers(-3, 3), min_size=f.dim, max_size=f.dim).map(tuple)
    # the first example found is enough: no shrinking
    find(st.tuples(bases(f), off_center), moves,
         settings=settings(derandomize=True, deadline=None, max_examples=200,
                           database=None, phases=(Phase.generate,)))


def test_fiber_vertices_are_ints_for_an_integral_fraction_point():
    # points no other test lifts, so the Fraction call comes first in the cache
    for f in FACES:
        for point in ((97,) * f.dim, tuple(range(f.dim + 90, 90, -1))):
            as_fractions = fiber_vertices(f, tuple(Q(x) for x in point))
            as_ints = fiber_vertices(f, point)
            assert as_ints == as_fractions
            assert all(type(x) is int for v in as_ints + as_fractions for x in v)


def test_newton_lift_takes_no_hull(monkeypatch):
    cases = [(f, hull([(2,) * f.dim, (3,) * f.dim])) for f in FACES[:6]]
    cases.append((face((3,)), hull([(2, 1, 0), (4, 2, 0), (4, 4, 0), (2, 2, 2)])))

    def no_hull(coords):
        raise AssertionError("newton_lift took a hull")

    monkeypatch.setattr(polytopes, "_hull_core", no_hull)
    for f, base in cases:
        lift = newton_lift(f, base)
        assert volume(lift, AffineLattice.standard(lift.ambient_dim)) > 0


def expanded(f, coords, free_values):
    """Per GL factor of size >= 2, (weight, pattern): the face point
    expanded to a weight, and the free entries completed by the pinned
    ones, each equal to the weight entry above it in its column."""
    weight, free = block_walk.expand(f, coords), free_pattern_entries(f)
    values = iter(free_values)
    out, pos = [], 0
    for factor, n in enumerate(f.group.gl_factors):
        block, pos = weight[pos:pos + n], pos + n
        if n < 2:
            continue
        pattern = [next(values) if i in free[factor] else block[c - 1]
                   for i, (_, c) in enumerate(pattern_positions(n))]
        out.append((block, pattern))
    return out


@pytest.mark.parametrize("f", FACES)
@PROPERTY
@given(data=st.data())
def test_interlacing_rows_match_the_reference_inequalities(f, data):
    coords = data.draw(dominant_points(f))
    nfree = sum(map(len, free_pattern_entries(f)))
    free_values = data.draw(st.lists(st.integers(-1, 4), min_size=nfree, max_size=nfree))
    point = coords + tuple(free_values)
    slacks = [-sum(a * x for a, x in zip(row, point)) for row, _ in interlacing_rows(f)]
    reference = [b - sum(a * x for a, x in zip(row, pattern))
                 for weight, pattern in expanded(f, coords, free_values)
                 for row, b in zip(*gt_inequalities(weight))]
    assert sorted(s for s in slacks if s) == sorted(s for s in reference if s)


def test_from_planes_builds_what_hull_builds():
    # a redundant half-space, x <= 5/3, is allowed
    planes = [((-1, 0), 0), ((0, -1), 0), ((1, 1), 2), ((1, 0), 5)]
    built = _from_planes([(0, 0), (0, 2), (2, 0)], 3, planes)
    expected = hull([(0, 0), (0, Q(2, 3)), (Q(2, 3), 0)])
    assert (built.points, built.den, built.facets) == (expected.points, 3, expected.facets)
    assert built.fan == ((0, 1, 2),)


def test_from_planes_rejects_a_cut_off_point_and_a_non_vertex():
    planes = [((-1, 0), 0), ((0, -1), 0), ((1, 1), 2)]
    with pytest.raises(DomainError, match="violates a half-space"):
        _from_planes([(0, 0), (0, 2), (2, 1)], 1, planes)
    with pytest.raises(DomainError, match="not a vertex"):
        _from_planes([(0, 0), (0, 2), (1, 0), (2, 0)], 1, planes)
