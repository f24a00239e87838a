import random

import pytest

from horoindex import (AffineLattice, DomainError, FiniteSet, Q, analogous,
                       completion_set, hull, minkowski_sum, saturation_check,
                       sumset)


def fs(*points):
    return FiniteSet(frozenset(points))


def random_set(rng, dim, lo=0, hi=4, max_size=5):
    pts = frozenset(tuple(rng.randint(lo, hi) for _ in range(dim))
                    for _ in range(rng.randint(1, max_size)))
    return FiniteSet(pts)


def test_nonempty_required():
    with pytest.raises(DomainError):
        FiniteSet(frozenset())


def test_points_must_lie_in_lattice():
    even = AffineLattice((0,), ((2,),))
    with pytest.raises(DomainError):
        FiniteSet(frozenset([(1,)]), even)


def test_a_point_off_the_lattice_is_named_in_plain_numbers():
    with pytest.raises(DomainError, match=r"point \(1/2, 0\) not in the ambient lattice"):
        fs((Q(1, 2), 0))


def test_a_float_point_is_rejected_by_name():
    with pytest.raises(DomainError, match=r"not the float 1\.0"):
        fs((1.0,), (2,))


def test_integral_points_are_kept_as_ints():
    a = fs((Q(2), 1), (0, Q(3, 1)))
    assert all(type(x) is int for p in a.points for x in p)


@pytest.mark.parametrize("point, n", [((1, 2), 3), ((1, 2, 3), 2)])
def test_points_of_the_wrong_dimension_are_rejected(point, n):
    with pytest.raises(DomainError):
        FiniteSet(frozenset([point]), AffineLattice.standard(n))


def test_sumset_small():
    a = fs((0,), (1,))
    b = fs((0,), (2,))
    assert sumset(a, b).points == {(Q(0),), (Q(1),), (Q(2),), (Q(3),)}


def test_hull_is_semigroup_homomorphism():
    rng = random.Random(83)
    for _ in range(15):
        dim = rng.randint(1, 3)
        a = random_set(rng, dim)
        b = random_set(rng, dim)
        assert sumset(a, b).hull() == minkowski_sum(a.hull(), b.hull())


def test_analogous_iff_equal_hulls():
    a = fs((0, 0), (2, 0), (0, 2))
    b = fs((0, 0), (2, 0), (0, 2), (1, 1))  # (1,1) is inside the triangle
    c = fs((0, 0), (2, 0), (0, 2), (2, 2))
    assert analogous(a, b)
    assert not analogous(a, c)


def test_analogy_respects_addition():
    rng = random.Random(89)
    for _ in range(10):
        a = random_set(rng, 2)
        b = completion_set(a)
        c = random_set(rng, 2)
        assert analogous(a, b)
        assert analogous(sumset(a, c), sumset(b, c))


def test_completion_extensive_and_idempotent():
    rng = random.Random(97)
    for _ in range(10):
        dim = rng.randint(1, 3)
        a = random_set(rng, dim)
        comp = completion_set(a)
        assert a.points <= comp.points
        assert completion_set(comp).points == comp.points
        assert analogous(a, comp)


def test_completion_on_sublattice():
    even = AffineLattice((0,), ((2,),))
    a = FiniteSet(frozenset([(0,), (6,)]), even)
    assert completion_set(a).points == {(Q(0),), (Q(2),), (Q(4),), (Q(6),)}


def test_saturation_basic_interval():
    # {0, 2} misses 1; level 0 fails (A != D_Z), level 1 onward succeeds
    a = fs((0,), (2,))
    assert not saturation_check(a, 0)
    assert saturation_check(a, 1)


def test_saturated_set_passes_all_levels():
    a = fs((0,), (1,), (2,))
    for level in range(4):
        assert saturation_check(a, level)


def test_saturation_eventually_holds():
    rng = random.Random(101)
    for _ in range(20):
        dim = rng.randint(1, 2)
        a = random_set(rng, dim, 0, 3)
        level = len(a) * (3 ** dim)
        assert saturation_check(a, level), sorted(a.points)


def test_saturation_monotone_once_reached():
    # once saturation holds at some level it holds at the next few as well
    a = fs((0, 0), (3, 0), (0, 3))
    first = next(n for n in range(0, 30) if saturation_check(a, n))
    for n in range(first, first + 3):
        assert saturation_check(a, n)


def test_singleton_always_saturated():
    a = fs((2, 1))
    for level in range(3):
        assert saturation_check(a, level)
