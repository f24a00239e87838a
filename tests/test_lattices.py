import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_kernel as oracle
from horoindex import AffineLattice, DomainError, Q, lattices


def test_standard_lattice_membership():
    lat = AffineLattice.standard(2)
    assert lat.contains((3, -5))
    assert not lat.contains((Q(1, 2), 0))
    assert lat.rank == 2


def test_the_standard_lattice_takes_no_elimination(monkeypatch):
    # the same lattice on a permuted identity basis, which does eliminate
    order = (2, 0, 4, 1, 3)
    permuted = AffineLattice((0,) * 5, tuple(tuple(int(i == j) for j in range(5)) for i in order))
    points = [(3, -1, 0, 2, 7), (Q(1, 2), 0, 0, 0, 0), (0, 0, 0, 0, Q(-5, 3))]
    spans = [[(1, 1, 0, 0, 0)], [(Q(1, 2), 0, 1, 0, 0), (0, 0, 0, 1, 1)]]
    expected = ([permuted.coordinates(v) for v in points], [permuted.contains(v) for v in points],
                [sorted(permuted.direction_sublattice(s)) for s in spans])

    def eliminate(rows):
        raise AssertionError("the standard lattice was eliminated")

    lattices._elimination.cache_clear()
    monkeypatch.setattr(lattices, "bareiss", eliminate)
    standard = AffineLattice.standard.__wrapped__(AffineLattice, 5)
    coordinates = [standard.coordinates(v) for v in points]
    assert [tuple(c[i] for i in order) for c in coordinates] == expected[0]
    assert [standard.contains(v) for v in points] == expected[1]
    assert [sorted(standard.direction_sublattice(s)) for s in spans] == expected[2]


def test_rank_zero_lattice_is_a_point():
    lat = AffineLattice((Q(1, 2), Q(0)), ())
    assert lat.rank == 0
    assert lat.contains((Q(1, 2), 0))
    assert not lat.contains((0, 0))


def test_coset_membership():
    # offset (1/2, 0) + Z(1,0) + Z(0,2)
    lat = AffineLattice((Q(1, 2), 0), ((1, 0), (0, 2)))
    assert lat.contains((Q(5, 2), 4))
    assert not lat.contains((Q(5, 2), 3))
    assert not lat.contains((2, 4))


def test_coordinates_round_trip():
    lat = AffineLattice((0, 1), ((2, 1), (0, 3)))
    point = lat.point_at((3, -2))
    assert lat.coordinates(point) == (Q(3), Q(-2))


def test_coordinates_outside_span():
    lat = AffineLattice((0, 0, 0), ((1, 0, 0),))
    assert lat.coordinates((0, 1, 0)) is None
    assert lat.direction_contains((5, 0, 0))
    assert not lat.direction_contains((0, 0, 1))


def test_dependent_basis_rejected():
    with pytest.raises(DomainError):
        AffineLattice((0, 0), ((1, 2), (2, 4)))


def test_non_integral_basis_rejected():
    with pytest.raises(DomainError):
        AffineLattice((0, 0), ((Q(3, 2), 0),))
    assert AffineLattice((0, 0), ((Q(4, 2), 0),)).basis == ((2, 0),)


def test_direction_sublattice_full_span():
    lat = AffineLattice.standard(2)
    sub = lat.direction_sublattice([(Q(1), Q(0)), (Q(0), Q(1))])
    assert sorted(sub) == [(0, 1), (1, 0)]


def test_direction_sublattice_diagonal_line():
    # Z^2 meets the line spanned by (1,1) in Z(1,1)
    lat = AffineLattice.standard(2)
    sub = lat.direction_sublattice([(Q(1), Q(1))])
    assert len(sub) == 1
    assert tuple(abs(x) for x in sub[0]) == (1, 1)


def test_direction_sublattice_of_sublattice():
    # 2Z x Z meets the line spanned by (1,1) in Z(2,2)
    lat = AffineLattice((0, 0), ((2, 0), (0, 1)))
    sub = lat.direction_sublattice([(Q(1), Q(1))])
    assert len(sub) == 1
    assert tuple(abs(x) for x in sub[0]) == (2, 2)


@pytest.mark.parametrize("point", [(1, 2, 3), (1,)])
def test_point_of_the_wrong_length_is_rejected(point):
    lat = AffineLattice.standard(2)
    for method in (lat.contains, lat.coordinates, lat.direction_contains, lat.point_at):
        with pytest.raises(DomainError):
            method(point)


def test_entries_are_stored_as_ints_where_integral():
    lat = AffineLattice((Q(4, 2), Q(1, 2)), ((Q(2), 1),))
    assert lat.offset == (2, Q(1, 2)) and type(lat.offset[0]) is int
    assert lat.basis == ((2, 1),) and all(type(x) is int for x in lat.basis[0])
    assert lat.point_at((3,)) == (8, Q(7, 2))


@pytest.mark.parametrize("offset, basis, bad", [
    ((0.1, 0), ((1, 0),), "offset entries must be ints or Fractions, not the float 0.1"),
    ((0, 0), ((2.0, 0),), "basis entries must be ints or Fractions, not the float 2.0"),
])
def test_a_float_entry_is_rejected_by_name(offset, basis, bad):
    with pytest.raises(DomainError, match=bad):
        AffineLattice(offset, basis)


def test_a_fractional_basis_entry_is_rejected():
    with pytest.raises(DomainError, match="basis entries must be integers"):
        AffineLattice((0, 0), ((Q(1, 2), 0),))


@st.composite
def lattices_and_vectors(draw):
    """A lattice of rank 0..n in Q^n, n <= 4, with a rational offset and a
    basis of index often > 1, and a vector of one kind: a lattice point, a
    point of the span with non-integral coordinates, or a vector that is
    most likely off the span (and is on it when the rank is n)."""
    n = draw(st.integers(1, 4))
    rank = draw(st.integers(0, n))
    scale = draw(st.sampled_from([1, 1, 2, 3]))
    basis = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n)
                          .map(lambda b: tuple(scale * x for x in b)),
                          min_size=rank, max_size=rank))
    assume(len(oracle.rref(basis)[0]) == rank)
    rational = st.builds(Q, st.integers(-5, 5), st.sampled_from([1, 2, 3]))
    offset = tuple(draw(st.lists(rational, min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["point", "span", "off"]))
    if kind == "off":
        return AffineLattice(offset, basis), tuple(draw(st.lists(rational, min_size=n,
                                                                  max_size=n)))
    coeffs = draw(st.lists(st.integers(-3, 3) if kind == "point" else rational,
                           min_size=rank, max_size=rank))
    vector = tuple(sum((c * b[i] for c, b in zip(coeffs, basis)), Q(0)) for i in range(n))
    return AffineLattice(offset, basis), vector


@settings(derandomize=True, deadline=None, max_examples=400)
@given(lattices_and_vectors())
def test_membership_matches_the_fraction_kernel(case):
    lat, vec = case
    cols = [tuple(b[i] for b in lat.basis) for i in range(lat.ambient_dim)]
    point = tuple(o + x for o, x in zip(lat.offset, vec))
    expected = oracle.solve(cols, vec)
    assert lat.coordinates(point) == expected
    assert lat.direction_contains(vec) == (expected is not None)
    assert lat.contains(point) == (expected is not None
                                   and all(c.denominator == 1 for c in expected))
    coords = lat.coordinates(point) or ()
    assert all(type(c) is int for c in coords if c.denominator == 1)
