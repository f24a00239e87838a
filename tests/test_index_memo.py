"""Property tests of the memo of subset-sum measures behind `index_report`.

The memo keeps both measures of `spaces._routes(space)`, the integral of
the top Weyl term and the volume of the lift, of a Minkowski subset sum of
moment polytopes across queries, one entry per subset keyed by (space,
summands).  The summands are the moment polytopes moved along the center of
G, so supports that are central translates of each other share entries.  A
warm memo must give the reports a cold one gives; each route must still
measure every distinct subset, up to central translation, itself, so that
route agreement stays a check between two computations; a query's central
translate must give its report with no measure taken; and the memo must
stay within its bound.
"""

from functools import reduce
from itertools import combinations
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from horoindex import (GENERAL_MODE, AffineLattice, ChamberFace, GroupDescriptor,
                       HorosphericalSpace, SupportSet, hull, index_report)
from horoindex import polytopes, spaces
from horoindex.polytopes import minkowski_sum
from horoindex.spaces import memo_clear, memo_info

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)


def face(gl_factors, blocks=None, torus=0):
    group = GroupDescriptor(gl_factors, torus)
    if blocks is None:
        return ChamberFace.full_chamber(group)
    return ChamberFace(group, blocks)


TORUS = face((), torus=2)
GL3_WALLS = (face((3,), ((1, 2),)), face((3,), ((2, 1),)))

# Quotient-mode spaces, with dominant points drawn per face block.
QUOTIENT = (HorosphericalSpace.quotient(TORUS),
            HorosphericalSpace.quotient(face((2,))),
            *(HorosphericalSpace.quotient(f) for f in GL3_WALLS))

# General-mode pairs: an index-1 and an index-2 Lambda(H) on one face, and a
# direction along which supports lie in a coset of both.
GENERAL = (
    (TORUS, ((1, 1),), ((2, 2),), (1, 1)),
    (GL3_WALLS[0], ((1, 0),), ((2, 0),), (1, 0)),
)


@st.composite
def dominant_point(draw, f, high=2):
    coords = []
    for sizes in f.blocks:
        values = draw(st.lists(st.integers(0, high), min_size=len(sizes),
                               max_size=len(sizes)))
        coords += sorted(values, reverse=True)
    coords += draw(st.lists(st.integers(-1, 1), min_size=f.group.torus_rank,
                            max_size=f.group.torus_rank))
    return tuple(coords)


@st.composite
def quotient_query(draw):
    space = draw(st.sampled_from(QUOTIENT))
    pool = [SupportSet(space, tuple(draw(st.lists(dominant_point(space.face),
                                                  min_size=1, max_size=3))))
            for _ in range(2)]
    supports = [draw(st.sampled_from(pool)) for _ in range(space.num_supports)]
    return [(space, supports)]


@st.composite
def general_queries(draw):
    """The same supports on an index-1 and an index-2 Lambda(H), in either order."""
    f, basis1, basis2, step = draw(st.sampled_from(GENERAL))
    pair = [HorosphericalSpace(f, AffineLattice((0,) * f.dim, basis), GENERAL_MODE)
            for basis in (basis1, basis2)]
    weights = []
    for _ in range(pair[0].num_supports):  # both lattices have the same rank
        # a dominant base point, moved along the even multiples of `step`
        base = (2, 0) if f is GL3_WALLS[0] else draw(dominant_point(f))
        ks = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
        weights.append(tuple(tuple(b + 2 * k * s for b, s in zip(base, step)) for k in ks))
    order = pair if draw(st.booleans()) else pair[::-1]
    return [(space, [SupportSet(space, w) for w in weights]) for space in order]


@st.composite
def query_batches(draw):
    batch = []
    for _ in range(draw(st.integers(2, 4))):
        batch += draw(st.one_of(quotient_query(), general_queries()))
    return batch


@PROPERTY
@given(query_batches())
def test_warm_memo_gives_the_cold_reports(batch):
    # twice over, so that the second pass finds every subset in the memo
    warm = [index_report(space, supports) for space, supports in batch + batch]
    for (space, supports), report in zip(batch + batch, warm):
        memo_clear()
        assert index_report(space, supports) == report


def central_part(f, point):
    """The central part of a face point: per GL factor its last block
    coordinate on each of the factor's blocks, and its torus coordinates."""
    shift, end = [], 0
    for sizes in f.blocks:
        end += len(sizes)
        shift += [point[end - 1]] * len(sizes)
    return tuple(shift) + tuple(point[end:])


def centered(support):
    """The support's weights less the central part of the first weight."""
    shift = central_part(support.space.face, support.weights[0])
    return [tuple(x - t for x, t in zip(w, shift)) for w in support.weights]


def distinct_subsets(supports):
    """The distinct sub-multisets of the moment polytopes up to central
    translation, each polytope moved so that its first vertex has no
    central part: their sorted vertices -> their Minkowski sum."""
    polytopes = [hull(centered(s)) for s in supports]
    return {tuple(sorted(p.vertices for p in subset)): reduce(minkowski_sum, subset)
            for size in range(1, len(polytopes) + 1)
            for subset in combinations(polytopes, size)}


@PROPERTY
@given(query_batches())
def test_each_route_measures_each_distinct_subset_once(batch):
    for space, supports in batch:
        memo_clear()
        with patch.object(spaces, "integrate", wraps=spaces.integrate) as integrate, \
                patch.object(spaces, "newton_lift", wraps=spaces.newton_lift) as lift:
            index_report(space, supports)
        hits, misses, _, _ = memo_info()
        n = len(supports)
        subsets = distinct_subsets(supports)
        assert misses == len(subsets)
        assert hits + misses == 2 ** n - 1
        # both routes skip a sum below full dimension, whose measure is 0
        rank = space.measure_lattice().rank
        measured = sum(body.dim >= rank for body in subsets.values())
        assert integrate.call_count == lift.call_count == measured


@st.composite
def central_translates(draw):
    """A quotient or general query, and the same query with every support
    moved by one central integer vector: a constant per GL factor, any
    integers on the torus."""
    space, supports = draw(st.one_of(quotient_query(), general_queries()))[0]
    f = space.face
    shift = []
    for sizes in f.blocks:
        shift += [draw(st.integers(-3, 3))] * len(sizes)
    shift += draw(st.lists(st.integers(-3, 3), min_size=f.group.torus_rank,
                           max_size=f.group.torus_rank))
    moved = [SupportSet(space, tuple(tuple(x + t for x, t in zip(w, shift))
                                     for w in s.weights)) for s in supports]
    return space, supports, moved


@PROPERTY
@given(central_translates())
def test_a_central_translate_gives_the_report_with_no_measure_taken(case):
    space, supports, moved = case
    report = index_report(space, supports)
    with patch.object(spaces, "integrate", wraps=spaces.integrate) as integrate, \
            patch.object(spaces, "newton_lift", wraps=spaces.newton_lift) as lift:
        assert index_report(space, moved) == report
    assert integrate.call_count == lift.call_count == 0


def test_memo_stays_within_its_bound():
    space = HorosphericalSpace.quotient(TORUS)
    _, _, bound, _ = memo_info()
    for k in range(1, bound + 2):
        # two distinct supports: three subsets, each one entry for both routes
        index_report(space, [SupportSet(space, ((0, 0), (k, 0))),
                             SupportSet(space, ((0, 0), (0, k)))])
        assert memo_info()[3] <= bound
    hits, misses, _, size = memo_info()
    assert size == bound and misses == 3 * (bound + 1) and hits == 0


def test_a_repeated_report_takes_no_hull(monkeypatch):
    # warm memos: the moment polytopes and every subset sum's measures
    space = HorosphericalSpace.quotient(face((2,)))
    a, b = SupportSet(space, ((0, 0), (2, 0), (1, 1))), SupportSet(space, ((1, 0), (3, 1)))
    first = index_report(space, [a, b, a])

    def no_hull(coords):
        raise AssertionError("_hull_core was called")

    monkeypatch.setattr(polytopes, "_hull_core", no_hull)
    assert index_report(space, [a, b, a]) == first
