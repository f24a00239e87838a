import itertools
import random

import pytest

from horoindex import (AffineLattice, BodySystem, DomainError, Polynomial, Q,
                       dilate, hull, minkowski_sum, mixed_integral,
                       mixed_volume, volume)

STD = {n: AffineLattice.standard(n) for n in range(1, 4)}


def random_body(rng, dim, lo=0, hi=3):
    pts = [tuple(Q(rng.randint(lo, hi)) for _ in range(dim))
           for _ in range(rng.randint(1, 6))]
    return hull(pts)


def test_diagonal_equals_volume():
    rng = random.Random(41)
    for dim in (1, 2, 3):
        for _ in range(5):
            body = random_body(rng, dim)
            system = BodySystem((body,) * dim, STD[dim])
            expected = volume(body, STD[dim]) if body.dim == dim else Q(0)
            assert mixed_volume(system) == expected


def test_two_simplices():
    tri = hull([(0, 0), (1, 0), (0, 1)])
    assert mixed_volume(BodySystem((tri, tri), STD[2])) == Q(1, 2)


def test_segment_pair_is_exact_parallelogram_area():
    s1 = hull([(0, 0), (2, 0)])
    s2 = hull([(0, 0), (1, 3)])
    # mixed volume of two segments = |det| / 2! * 2 = area of the parallelogram / 1
    assert mixed_volume(BodySystem((s1, s2), STD[2])) == 3


def test_symmetry_exhaustive():
    rng = random.Random(43)
    for dim in (2, 3):
        bodies = tuple(random_body(rng, dim, 0, 2) for _ in range(dim))
        values = {mixed_volume(BodySystem(perm, STD[dim]))
                  for perm in itertools.permutations(bodies)}
        assert len(values) == 1


def test_multilinearity():
    rng = random.Random(47)
    for _ in range(6):
        a = random_body(rng, 2)
        b = random_body(rng, 2)
        c = random_body(rng, 2)
        lhs = mixed_volume(BodySystem((minkowski_sum(a, b), c), STD[2]))
        rhs = (mixed_volume(BodySystem((a, c), STD[2]))
               + mixed_volume(BodySystem((b, c), STD[2])))
        assert lhs == rhs


def test_dilation_linearity():
    rng = random.Random(53)
    a = random_body(rng, 2)
    b = random_body(rng, 2)
    assert (mixed_volume(BodySystem((dilate(a, 3), b), STD[2]))
            == 3 * mixed_volume(BodySystem((a, b), STD[2])))


def test_translation_invariance():
    rng = random.Random(59)
    a = random_body(rng, 2)
    b = random_body(rng, 2)
    v = mixed_volume(BodySystem((a, b), STD[2]))
    shifted = hull([(x + 2, y - 1) for x, y in a.vertices])
    assert mixed_volume(BodySystem((shifted, b), STD[2])) == v


def test_monotone_nonnegative():
    rng = random.Random(61)
    for _ in range(10):
        bodies = tuple(random_body(rng, 2, -2, 2) for _ in range(2))
        assert mixed_volume(BodySystem(bodies, STD[2])) >= 0


def test_lower_dimensional_body_gives_zero_when_parallel_segments():
    s = hull([(0, 0), (1, 0)])
    assert mixed_volume(BodySystem((s, s), STD[2])) == 0


def test_point_body_gives_zero():
    pt = hull([(1, 1)])
    tri = hull([(0, 0), (1, 0), (0, 1)])
    assert mixed_volume(BodySystem((pt, tri), STD[2])) == 0


def test_body_count_enforced():
    tri = hull([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(DomainError):
        mixed_volume(BodySystem((tri,), STD[2]))


def test_non_parallel_body_rejected():
    line = AffineLattice((0, 0), ((1, 0),))
    with pytest.raises(DomainError):
        BodySystem((hull([(0, 0), (0, 1)]),), line)


def test_sublattice_normalization():
    # unit square has volume 1/2 against the index-2 lattice Z(1,1)+Z(1,-1)
    square = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    checker = AffineLattice((0, 0), ((1, 1), (1, -1)))
    assert mixed_volume(BodySystem((square, square), checker)) == Q(1, 2)


def test_mixed_integral_of_one_is_mixed_volume():
    rng = random.Random(67)
    one = Polynomial.constant(1, 2)
    for _ in range(5):
        bodies = tuple(random_body(rng, 2) for _ in range(2))
        system = BodySystem(bodies, STD[2])
        assert mixed_integral(one, system) == mixed_volume(system)


def test_mixed_integral_diagonal_is_integral():
    from horoindex import integrate
    rng = random.Random(71)
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    poly = x * y
    for _ in range(5):
        body = random_body(rng, 2)
        if body.dim < 2:
            continue
        system = BodySystem((body,) * 4, STD[2])  # degree 2 + 2 bodies
        assert mixed_integral(poly, system) == integrate(poly, body, STD[2])


def test_mixed_integral_symmetry():
    rng = random.Random(73)
    x = Polynomial.variable(0, 2)
    bodies = tuple(random_body(rng, 2, 0, 2) for _ in range(3))
    system = BodySystem(bodies, STD[2])
    values = {mixed_integral(x, BodySystem(perm, STD[2]))
              for perm in itertools.permutations(bodies)}
    assert len(values) == 1


def test_mixed_integral_requires_homogeneous():
    x = Polynomial.variable(0, 2)
    tri = hull([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(DomainError):
        mixed_integral(x + 1, BodySystem((tri,) * 3, STD[2]))


def test_mixed_integral_checks_the_variable_count():
    one5 = Polynomial.constant(1, 5)
    points = (hull([(0, 0)]), hull([(1, 2)]))
    with pytest.raises(DomainError):
        mixed_integral(one5, BodySystem(points, STD[2]))
    # zero bodies: the polynomial would be evaluated at the lattice's offset
    with pytest.raises(DomainError):
        mixed_integral(one5, BodySystem((), AffineLattice((1, 2), ())))
