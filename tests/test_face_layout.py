"""`ChamberFace.columns` against the block walk of `block_walk.py`.

Every reader of a face's layout reads `columns`: `expand`,
`face_coordinates` and `face_contains_coords` in `weyl`, the free pattern
entries and interlacing rows in `gelfand_tsetlin`, and the central shift
of supports in `spaces`.  On every face of `test_hilbert_route.ALL_FACES`
each must answer as the walk over `ChamberFace.blocks` does, errors
included.  `expanded_weyl.py` restricts Weyl's formula through the walk's
`expand`, so the check of `dimension_forms` there does not rest on
`columns` either.
"""

import random

import pytest

import block_walk
from horoindex import DomainError, HorosphericalSpace, Q, SupportSet, hull
from horoindex.gelfand_tsetlin import _free_entries, interlacing_rows
from horoindex.spaces import _centered_polytope
from test_hilbert_route import ALL_FACES


def face_id(face):
    return f"{face.group.gl_factors}T{face.group.torus_rank}{face.blocks}"


def points(face, rng, count=40):
    """Face points with small entries, so that ties and both orders of
    neighbouring blocks occur, one of them with a Fraction entry."""
    pts = [tuple(rng.randint(-2, 2) for _ in range(face.dim)) for _ in range(count)]
    if face.dim:
        pts.append((Q(1, 2),) + pts[0][1:])
    return pts


def dominant_points(face, rng, count=4):
    out = []
    for _ in range(count):
        coords = []
        for sizes in face.blocks:
            coords += sorted((rng.randint(-2, 3) for _ in sizes), reverse=True)
        out.append(tuple(coords) + tuple(rng.randint(-2, 2)
                                         for _ in range(face.group.torus_rank)))
    return out


def raised(call, *args):
    with pytest.raises(DomainError) as caught:
        call(*args)
    return str(caught.value)


@pytest.mark.parametrize("face", ALL_FACES, ids=face_id)
def test_weights_and_face_coordinates_match_the_walk(face):
    rng = random.Random(face_id(face))
    for point in points(face, rng):
        weight = face.expand(point)
        assert weight == block_walk.expand(face, point)
        assert face.face_coordinates(weight) == block_walk.face_coordinates(face, weight)
        assert face.face_contains_coords(point) == block_walk.face_contains_coords(face, point)
        # one column moved off its block's value, in every block of two or more
        pos = 0
        for sizes in face.blocks:
            for size in sizes:
                pos += size
                if size > 1:
                    off = weight[:pos - 1] + (weight[pos - 1] + 1,) + weight[pos:]
                    assert (raised(face.face_coordinates, off)
                            == raised(block_walk.face_coordinates, face, off))
    coords, weight = (0,) * (face.dim + 1), (0,) * (face.group.rank + 1)
    assert raised(face.expand, coords) == raised(block_walk.expand, face, coords)
    assert (raised(face.face_coordinates, weight)
            == raised(block_walk.face_coordinates, face, weight))


@pytest.mark.parametrize("face", ALL_FACES, ids=face_id)
def test_pattern_layout_matches_the_walk(face):
    assert _free_entries(face) == block_walk.free_entries(face)
    assert interlacing_rows(face) == block_walk.interlacing_rows(face)


@pytest.mark.parametrize("face", ALL_FACES, ids=face_id)
def test_central_shift_matches_the_walk(face):
    space, rng = HorosphericalSpace.quotient(face), random.Random(face_id(face))
    for _ in range(5):
        support = SupportSet(space, tuple(dominant_points(face, rng)))
        first = block_walk.central_shift(face, support.weights[0])
        moved = [tuple(x - t for x, t in zip(w, first)) for w in support.weights]
        assert _centered_polytope(support) == hull(moved)
