import pytest

from horoindex import AffineLattice, DomainError, Q


def test_standard_lattice_membership():
    lat = AffineLattice.standard(2)
    assert lat.contains((3, -5))
    assert not lat.contains((Q(1, 2), 0))
    assert lat.rank == 2


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
