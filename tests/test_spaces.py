import random
import re

import pytest

from horoindex import (GENERAL_MODE, QUOTIENT_MODE, AffineLattice, ChamberFace,
                       DomainError, GroupDescriptor, HorosphericalSpace, Q,
                       SupportSet, completion_support, hilbert_function,
                       index_report, moment_polytope, product_support,
                       self_index_via_hilbert)
from horoindex import spaces


def gl(n, blocks=None, torus=0):
    g = GroupDescriptor((n,), torus)
    if blocks is None:
        return ChamberFace.full_chamber(g)
    return ChamberFace(g, (tuple(blocks),))


def torus_space(rank):
    face = ChamberFace.full_chamber(GroupDescriptor((), torus_rank=rank))
    return HorosphericalSpace.quotient(face)


def bezout_space():
    """Projective-space model: GL(3) with a one-block parabolic and a rank-1
    weight lattice on the first fundamental ray."""
    face = gl(3, (1, 2))
    lam = AffineLattice((0, 0), ((1, 0),))
    return HorosphericalSpace(face, lam, GENERAL_MODE)


def ray_support(space, d):
    return SupportSet(space, tuple((k, 0) for k in range(d + 1)))


def test_bezout_dims():
    space = bezout_space()
    assert space.dims == (4, 3)
    assert space.num_supports == 3


def test_bezout_products_of_degrees():
    space = bezout_space()
    for degs in [(1, 1, 1), (1, 2, 3), (2, 2, 2), (3, 1, 2)]:
        supports = [ray_support(space, d) for d in degs]
        report = index_report(space, supports)
        assert report.index == degs[0] * degs[1] * degs[2]


def test_bezout_singletons_give_zero():
    space = bezout_space()
    supports = [SupportSet(space, ((2, 0),)) for _ in range(3)]
    assert index_report(space, supports).index == 0


@pytest.mark.parametrize("k, n, degrees, expected", [
    (1, 3, None, 1), (1, 4, None, 1), (2, 4, None, 2),
    (2, 5, None, 5), (2, 6, None, 14), (3, 6, None, 42),
    (2, 4, (1, 1, 2, 3, 2), 24),
    (2, 5, (1, 2, 3, 1, 1, 2, 1), 60),
    (2, 6, (2, 1, 1, 1, 1, 1, 1, 1, 2), 56),
])
def test_grassmannian_cone_degrees(k, n, degrees, expected):
    """GL(n) over the parabolic of blocks (k, n - k), with Lambda(H) spanned
    by the k-th fundamental weight (1, 0), is the cone over Gr(k, n) in its
    Pluecker embedding, of dimension k(n - k) + 1.  Polynomials of degree
    d_i in the Pluecker coordinates have d_1...d_m times the Pluecker degree
    (k(n - k))! prod_{i<k} i! / (n - k + i)! common zeros there, a number
    that no route of the library derives from another."""
    space = HorosphericalSpace(gl(n, (k, n - k)), AffineLattice((0, 0), ((1, 0),)),
                               GENERAL_MODE)
    degrees = degrees or (1,) * (k * (n - k) + 1)
    assert space.num_supports == len(degrees)
    assert index_report(space, [ray_support(space, d) for d in degrees]).index == expected


def flag_space(n):
    """Full flag variety model: full chamber, trivial weight lattice."""
    face = gl(n)
    lam = AffineLattice((0,) * n, ())
    return HorosphericalSpace(face, lam, GENERAL_MODE)


def test_projective_line_degrees():
    space = flag_space(2)
    assert space.num_supports == 1
    for k in range(1, 6):
        s = SupportSet(space, ((k, 0),))
        assert index_report(space, [s]).index == k


def test_flag_threefold_degree():
    space = flag_space(3)
    assert space.num_supports == 3
    s = SupportSet(space, ((2, 1, 0),))
    assert index_report(space, [s, s, s]).index == 6


def test_torus_special_case():
    space = torus_space(2)
    assert space.num_supports == 2
    for d1, d2 in [(1, 1), (2, 3), (3, 1)]:
        s1 = SupportSet(space, ((0, 0), (d1, 0), (0, d1)))
        s2 = SupportSet(space, ((0, 0), (d2, 0), (0, d2)))
        assert index_report(space, [s1, s2]).index == d1 * d2
    square = SupportSet(space, ((0, 0), (1, 0), (0, 1), (1, 1)))
    assert index_report(space, [square, square]).index == 2


def test_gl2_quotient_triangle():
    space = HorosphericalSpace.quotient(gl(2))
    s = SupportSet(space, ((0, 0), (1, 0), (1, 1)))
    report = index_report(space, [s] * 3)
    assert report.index == 1
    assert report.hilbert_route == 1
    assert hilbert_function(space, s, 0) == 1
    assert hilbert_function(space, s, 1) == 4
    assert hilbert_function(space, s, 2) == 10


def test_hilbert_route_on_random_gl2_diagonals():
    rng = random.Random(127)
    space = HorosphericalSpace.quotient(gl(2))
    for _ in range(5):
        pts = {(0, 0)}
        while len(pts) < 3:
            a = rng.randint(0, 3)
            pts.add((a, rng.randint(0, a)))
        s = SupportSet(space, tuple(pts))
        report = index_report(space, [s] * 3)
        assert report.hilbert_route == report.index


def test_routes_agree_on_mixed_gl3_system():
    space = HorosphericalSpace.quotient(gl(3, (1, 2)))
    assert space.num_supports == 4
    s1 = SupportSet(space, ((0, 0), (1, 0), (1, 1)))
    s2 = SupportSet(space, ((0, 0), (2, 0)))
    report = index_report(space, [s1, s1, s2, s2])
    assert report.integral_route == report.lift_route
    assert report.index >= 0


def test_index_invariant_under_completion():
    space = bezout_space()
    sparse = SupportSet(space, ((0, 0), (3, 0)))  # misses interior points
    full = completion_support(sparse)
    assert len(full.weights) == 4
    others = [ray_support(space, 2), ray_support(space, 1)]
    a = index_report(space, [sparse] + others).index
    b = index_report(space, [full] + others).index
    assert a == b == 3 * 2 * 1


def test_completion_respects_coset():
    face = gl(2)
    lam = AffineLattice((0, 0), ((2, 0),))
    space = HorosphericalSpace(face, lam, GENERAL_MODE)
    s = SupportSet(space, ((0, 0), (4, 0)))
    comp = completion_support(s)
    assert comp.weights == ((Q(0), Q(0)), (Q(2), Q(0)), (Q(4), Q(0)))


def test_index_additive_under_product():
    space = bezout_space()
    s1 = ray_support(space, 1)
    s2 = ray_support(space, 2)
    others = [ray_support(space, 1), ray_support(space, 3)]
    lhs = index_report(space, [product_support(s1, s2)] + others).index
    rhs = (index_report(space, [s1] + others).index
           + index_report(space, [s2] + others).index)
    assert lhs == rhs


def test_index_symmetric_in_supports():
    space = bezout_space()
    supports = [ray_support(space, d) for d in (1, 2, 3)]
    a = index_report(space, supports).index
    b = index_report(space, supports[::-1]).index
    assert a == b


def test_index_monotone_under_inclusion():
    space = bezout_space()
    small = ray_support(space, 1)
    big = ray_support(space, 3)
    others = [ray_support(space, 2), ray_support(space, 2)]
    assert (index_report(space, [small] + others).index
            <= index_report(space, [big] + others).index)


def test_support_validation():
    space = bezout_space()
    with pytest.raises(DomainError):
        SupportSet(space, ())  # empty
    with pytest.raises(DomainError):
        SupportSet(space, ((0, 1),))  # not dominant on the face
    with pytest.raises(DomainError):
        SupportSet(space, ((0, 0), (Q(1, 2), 0)))  # not integral
    with pytest.raises(DomainError):
        SupportSet(space, ((0, 0), (1, 1)))  # difference outside Lambda(H)


def test_support_weights_are_ints_and_floats_are_rejected():
    space = bezout_space()
    s = SupportSet(space, ((Q(2), 0), (1, Q(0)), (2, 0)))
    assert s.weights == ((1, 0), (2, 0))
    assert all(type(x) is int for w in s.weights for x in w)
    with pytest.raises(DomainError, match=r"support weights must be ints or Fractions, "
                                          r"not the float 2\.0"):
        SupportSet(space, ((2.0, 1.0), (1, 0)))
    with pytest.raises(DomainError, match=r"not the float 0\.1"):
        SupportSet(space, ((0.1, 0.0),))
    with pytest.raises(DomainError, match=r"weights must be ints or Fractions, "
                                          r"not the float 2\.0"):
        SupportSet.from_full_weights(space, [(2.0, 1.0, 1.0)])
    with pytest.raises(DomainError, match=r"support weight \(1/2, 0\) is not integral"):
        SupportSet(space, ((0, 0), (Q(1, 2), 0)))
    with pytest.raises(DomainError, match=r"support weight \(0, 1\) is not dominant"):
        SupportSet(space, ((0, 1),))


def test_support_count_enforced():
    space = bezout_space()
    with pytest.raises(DomainError):
        index_report(space, [ray_support(space, 1)] * 2)


def test_hilbert_requires_quotient_mode():
    space = bezout_space()
    with pytest.raises(DomainError):
        hilbert_function(space, ray_support(space, 1), 1)


@pytest.mark.parametrize("weights", [((0, 0), (1, 0), (0, 1)), ((0, 0), (1, 0), (1, 1))],
                         ids=["not-dominant-in-gl2", "dominant-in-both"])
def test_hilbert_function_rejects_a_support_from_another_space(weights):
    torus, gl2 = torus_space(2), HorosphericalSpace.quotient(gl(2))
    s = SupportSet(torus, weights)
    with pytest.raises(DomainError, match="support belongs to a different space"):
        hilbert_function(gl2, s, 1)
    with pytest.raises(DomainError, match="support belongs to a different space"):
        self_index_via_hilbert(gl2, s)
    assert [hilbert_function(torus, s, k) for k in range(4)] == [1, 3, 6, 10]


@pytest.mark.parametrize("k", [Q(1, 2), 1.5, True], ids=repr)
def test_hilbert_function_rejects_a_k_that_is_not_an_int(k):
    space = HorosphericalSpace.quotient(gl(2))
    s = SupportSet(space, ((0, 0), (2, 0), (2, 1)))
    assert [hilbert_function(space, s, j) for j in range(3)] == [1, 8, 27]
    with pytest.raises(DomainError, match=r"k must be an int, got " + re.escape(repr(k))):
        hilbert_function(space, s, k)


def test_quotient_mode_requires_full_lattice():
    with pytest.raises(DomainError):
        HorosphericalSpace(gl(2), AffineLattice((0, 0), ((2, 0),)), QUOTIENT_MODE)


@pytest.mark.parametrize("basis", [((2, 0), (0, 1)), ((1, 1), (1, -1))])
def test_quotient_mode_rejects_a_sublattice_of_full_rank(basis):
    with pytest.raises(DomainError, match="requires Lambda\\(H\\) = the full face lattice"):
        HorosphericalSpace(gl(2), AffineLattice((0, 0), basis), QUOTIENT_MODE)


def test_quotient_mode_takes_any_unimodular_basis(monkeypatch):
    lam = AffineLattice((0, 0), ((1, 1), (0, 1)))
    assert HorosphericalSpace(gl(2), lam, QUOTIENT_MODE).num_supports == 3

    def det(rows):
        raise AssertionError("the standard basis took a determinant")

    monkeypatch.setattr(spaces, "det", det)
    HorosphericalSpace(gl(2), AffineLattice((0, 0), ((1, 0), (0, 1))), QUOTIENT_MODE)


def test_index_2_sublattice_route_agreement():
    face = gl(2)
    lam = AffineLattice((0, 0), ((2, 0),))
    space = HorosphericalSpace(face, lam, GENERAL_MODE)
    assert space.num_supports == 2
    s = SupportSet(space, ((0, 0), (2, 0), (4, 0)))
    report = index_report(space, [s, s])
    assert report.integral_route == report.lift_route
    assert report.index >= 0
