import json
import random

import pytest

from horoindex import (GENERAL_MODE, AffineLattice, DomainError, Polynomial,
                       Q, hull)
from horoindex.serialization import (face_from_json, group_from_json,
                                     lattice_from_json,
                                     polynomial_from_json, polynomial_to_json,
                                     polytope_from_json, polytope_to_json,
                                     problem_from_json, rat_from_json,
                                     rat_to_json, vector_from_json)


def test_rational_round_trip():
    for value in [Q(0), Q(5), Q(-3), Q(1, 2), Q(-7, 3)]:
        assert rat_from_json(rat_to_json(value)) == value


def test_rational_accepts_plain_ints():
    assert rat_from_json(4) == Q(4)
    assert rat_from_json("4") == Q(4)


def test_rational_rejects_floats_and_junk():
    with pytest.raises(DomainError):
        rat_from_json(0.5)
    with pytest.raises(DomainError):
        rat_from_json(True)
    with pytest.raises(DomainError):
        rat_from_json("1/0")
    with pytest.raises(DomainError):
        rat_from_json("pi")


def test_polytope_round_trip():
    rng = random.Random(131)
    for _ in range(10):
        dim = rng.randint(1, 3)
        pts = [tuple(Q(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(dim))
               for _ in range(5)]
        p = hull(pts)
        blob = json.dumps(polytope_to_json(p))
        assert polytope_from_json(json.loads(blob)) == p


def test_lattice_round_trip():
    lat = AffineLattice((Q(1, 2), 0), ((2, 0), (0, 3)))
    blob = json.dumps({"offset": ["1/2", 0], "basis": [[2, 0], [0, 3]]})
    assert lattice_from_json(json.loads(blob)) == lat
    # a missing offset is the origin of the basis' space
    assert lattice_from_json({"basis": [[1, 1]]}) == AffineLattice((0, 0), ((1, 1),))
    assert lattice_from_json({}).ambient_dim == 0


def test_polynomial_round_trip():
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    p = Q(1, 3) * x ** 2 * y - 2 * y + Polynomial.constant(7, 2)
    blob = json.dumps(polynomial_to_json(p))
    assert polynomial_from_json(json.loads(blob)) == p


def test_polynomial_merges_duplicate_terms():
    obj = {"terms": [{"exp": [1], "coef": "1/2"}, {"exp": [1], "coef": "1/2"}]}
    x = Polynomial.variable(0, 1)
    assert polynomial_from_json(obj) == x


def test_group_and_face_from_json():
    g = group_from_json({"gl": [3, 2], "torus": 1})
    assert (g.gl_factors, g.torus_rank) == ((3, 2), 1)
    face = face_from_json(g, {"blocks": [[1, 2], [2]]})
    assert face.blocks == ((1, 2), (2,))
    # omitting blocks means the full chamber
    full = face_from_json(g, {})
    assert full.blocks == ((1, 1, 1), (1, 1))


def test_problem_parsing():
    obj = {
        "group": {"gl": [3]},
        "face": {"blocks": [[1, 2]]},
        "lambda_H": {"offset": [0, 0], "basis": [[1, 0]]},
        "mode": GENERAL_MODE,
        "supports": [[[0, 0, 0], [1, 0, 0]]],
    }
    space, supports = problem_from_json(obj)
    assert space.mode == GENERAL_MODE
    assert space.num_supports == 3
    assert len(supports) == 1
    assert supports[0].weights == ((Q(0), Q(0)), (Q(1), Q(0)))


def test_problem_rejects_bad_mode():
    with pytest.raises(DomainError):
        problem_from_json({"group": {"gl": [2]}, "mode": "nonsense"})


def test_vector_from_json_mixed_forms():
    assert vector_from_json([1, "2", "3/2"]) == (Q(1), Q(2), Q(3, 2))
