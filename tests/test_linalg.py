import random

import pytest

from bareiss_solve import solve
from fraction_kernel import dot
from horoindex import linalg
from horoindex.linalg import det, extend_echelon, integer_kernel, nullspace, rank, rref
from horoindex.rationals import Q


def test_rref_identity():
    rows = [(Q(1), Q(0)), (Q(0), Q(1))]
    reduced, pivots = rref(rows)
    assert reduced == [(Q(1), Q(0)), (Q(0), Q(1))]
    assert pivots == [0, 1]


def test_rref_drops_dependent_rows():
    rows = [(Q(1), Q(2)), (Q(2), Q(4)), (Q(1), Q(3))]
    reduced, pivots = rref(rows)
    assert len(reduced) == 2
    assert pivots == [0, 1]


def test_rank():
    assert rank([(Q(1), Q(2)), (Q(2), Q(4))]) == 1
    assert rank([(Q(1), Q(0)), (Q(0), Q(1))]) == 2
    assert rank([]) == 0


def test_solve_unique():
    rows = [(Q(2), Q(1)), (Q(1), Q(-1))]
    x = solve(rows, (Q(5), Q(1)))
    assert x == (Q(2), Q(1))


def test_solve_inconsistent():
    rows = [(Q(1), Q(1)), (Q(2), Q(2))]
    assert solve(rows, (Q(1), Q(3))) is None


def test_nullspace_orthogonal():
    rng = random.Random(7)
    for _ in range(20):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        rows = [tuple(Q(rng.randint(-3, 3)) for _ in range(n)) for _ in range(m)]
        basis = nullspace(rows)
        assert len(basis) == n - rank(rows)
        for v in basis:
            for r in rows:
                assert dot(r, v) == 0


def test_det_known():
    assert det([(Q(1), Q(2)), (Q(3), Q(4))]) == Q(-2)
    assert det([(Q(2),)]) == Q(2)
    assert det([]) == Q(1)


def test_det_alternating():
    rows = [(Q(1), Q(2), Q(0)), (Q(0), Q(1), Q(1)), (Q(3), Q(0), Q(2))]
    swapped = [rows[1], rows[0], rows[2]]
    assert det(swapped) == -det(rows)


def test_int_rows_are_not_rescaled(monkeypatch):
    rows = [(2, -1, 0), (1, 3, 4), (0, 5, -2)]
    rational = [tuple(Q(x) for x in row) for row in rows]
    expected = det(rational), rref(rational)
    monkeypatch.setattr(linalg, "scaled", None)
    assert det(rows) == expected[0] and type(det(rows)) is int
    assert rref(rows) == expected[1]


def test_extend_echelon_tracks_the_rank():
    echelon = []
    rows = [(0, 2, 4), (0, 1, 2), (3, 0, 1), (3, 2, 5), (1, 1, 1)]
    grew = [extend_echelon(echelon, row) for row in rows]
    assert grew == [True, False, True, False, True]
    assert [c for c, _ in echelon] == [1, 0, 2]
    assert len(echelon) == rank(rows)


def test_integer_kernel_is_integral_and_spans():
    rng = random.Random(11)
    for _ in range(30):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        rows = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m)]
        basis = integer_kernel(rows)
        assert len(basis) == n - rank(rows)
        for v in basis:
            assert all(x == int(x) for x in v)
            for r in rows:
                assert dot(r, v) == 0
        # the integer kernel basis is linearly independent
        assert rank([tuple(Q(x) for x in v) for v in basis]) == len(basis)


def test_integer_kernel_catches_halves():
    # kernel of (1 1) over Q is spanned by (1,-1); any integral generator
    # must be primitive
    basis = integer_kernel([(2, 2)])
    assert len(basis) == 1
    v = basis[0]
    assert abs(v[0]) == 1 and v[0] == -v[1]
