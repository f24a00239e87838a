"""Property tests: the rational helpers that `linalg` derives from its one
fraction-free elimination against the `Fraction` Gauss-Jordan kernel.

`rank` and `solve` must equal the oracle exactly, and so must `rref`'s int
rows divided by their pivot entries; `solve` is the `rref`-based solver of
`bareiss_solve`, which `expanded_integral` uses.  `nullspace`
returns an integer basis instead of the canonical rational one, so it must
have the oracle's length and span the oracle's kernel.  `normal_vector`
takes integer rows; on the rows scaled to ints, which keeps the kernel, it
must be the primitive generator.  `determinants` must give each
selection's `fraction_det`, whatever the selection shares with the one
before it.
"""

from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_kernel as oracle
from bareiss_solve import solve
from horoindex import Q
from horoindex.linalg import (common_denominator, determinants, normal_vector, nullspace,
                              rank, rref, scaled)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=400)


@st.composite
def matrices(draw):
    """0-5 rows by 1-5 columns of rationals over denominators 1, 2, 3, 6,
    with zero rows, repeated rows and negative leading entries."""
    ncols = draw(st.integers(1, 5))
    entry = st.builds(Q, st.integers(-4, 4), st.sampled_from([1, 2, 3, 6]))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "negative"]))
        if kind == "zero":
            rows.append((Q(0),) * ncols)
        elif kind == "repeat" and rows:
            rows.append(draw(st.sampled_from(rows)))
        else:
            row = [draw(entry) for _ in range(ncols)]
            if kind == "negative":
                row[0] = -abs(draw(entry.filter(bool)))
            rows.append(tuple(row))
    return ncols, rows


def oracle_rank(rows):
    return len(oracle.rref(rows)[0])


@PROPERTY
@given(matrices())
def test_rref_and_rank_match_the_fraction_kernel(case):
    _, rows = case
    reduced, pivots = rref(rows)
    assert ([tuple(Q(x, row[c]) for x in row) for row, c in zip(reduced, pivots)],
            pivots) == oracle.rref(rows)
    assert rank(rows) == oracle_rank(rows)


@PROPERTY
@given(matrices(), st.data())
def test_solve_matches_the_fraction_kernel(case, data):
    ncols, rows = case
    entry = st.builds(Q, st.integers(-3, 3), st.sampled_from([1, 2]))
    free_rhs = tuple(data.draw(entry) for _ in rows)
    x = [data.draw(entry) for _ in range(ncols)]
    consistent_rhs = tuple(sum((a * b for a, b in zip(row, x)), Q(0)) for row in rows)
    for rhs in (free_rhs, consistent_rhs):
        assert solve(rows, rhs) == oracle.solve(rows, rhs)


@PROPERTY
@given(matrices())
def test_nullspace_is_an_integer_basis_of_the_fraction_kernel(case):
    _, rows = case
    basis, expected = nullspace(rows), oracle.nullspace(rows)
    assert all(type(x) is int for v in basis for x in v)
    assert len(basis) == len(expected)
    for v in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0
    assert oracle_rank(basis) == len(expected)
    assert oracle_rank(basis + expected) == len(expected)


@PROPERTY
@given(matrices())
def test_normal_vector_is_the_primitive_kernel_generator(case):
    _, rows = case
    basis = nullspace(rows)
    n = normal_vector([scaled(row, common_denominator(row)) for row in rows])
    if len(basis) != 1:
        assert n is None
        return
    g = gcd(*basis[0])
    assert n == tuple(x // g for x in basis[0])
    unit = oracle.clear_denominators(oracle.nullspace(rows)[0])
    assert n in (unit, tuple(-x for x in unit))


@st.composite
def row_selections(draw):
    """Up to 7 int rows of n = 0-4 entries, some zero, repeated or sums of
    others, and up to 8 selections of n row indices: each keeps a prefix of
    the one before (all of it, part of it or none) or permutes it, and
    indices may repeat, so some selections are singular."""
    n = draw(st.integers(0, 4))
    rows = []
    for _ in range(draw(st.integers(max(n, 1), 7))):
        kind = draw(st.sampled_from(["random", "random", "zero", "repeat", "sum"]))
        if kind == "zero":
            rows.append((0,) * n)
        elif kind == "repeat" and rows:
            rows.append(draw(st.sampled_from(rows)))
        elif kind == "sum" and len(rows) >= 2:
            rows.append(tuple(a + b for a, b in zip(rows[-1], rows[-2])))
        else:
            rows.append(tuple(draw(st.integers(-4, 4)) for _ in range(n)))
    index = st.integers(0, len(rows) - 1)
    selections = [[draw(index) for _ in range(n)]]
    for _ in range(draw(st.integers(0, 7))):
        if draw(st.booleans()):
            selections.append(draw(st.permutations(selections[-1])))
        else:
            keep = draw(st.integers(0, n))
            selections.append(selections[-1][:keep] + [draw(index) for _ in range(n - keep)])
    return rows, selections


@PROPERTY
@given(row_selections())
def test_determinants_match_the_fraction_det(case):
    rows, selections = case
    expected = [oracle.fraction_det([[Q(x) for x in rows[i]] for i in s]) for s in selections]
    assert determinants(rows, selections) == expected
    assert determinants(rows, [()]) == [1]
