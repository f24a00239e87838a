import itertools
import random
import re
from math import factorial

import pytest

from horoindex import (AffineLattice, ChamberFace, DomainError,
                       GroupDescriptor, Q, cross_pair_count, dim_irrep,
                       restricted_weyl, space_dims, weyl_polynomial)


def hook_length_dimension(shape, n):
    """dim of the GL(n) irrep of a partition, by the hook content formula."""
    value = Q(1)
    for i, row in enumerate(shape):
        for j in range(row):
            hook = (row - j) + sum(1 for r in shape[i + 1:] if r > j)
            value *= Q(n + j - i, hook)
    assert value.denominator == 1
    return int(value.numerator)


def test_gl2_dimension():
    g = GroupDescriptor((2,))
    for a in range(5):
        for b in range(a + 1):
            assert dim_irrep(g, (a, b)) == a - b + 1


def test_gl3_against_hook_content():
    g = GroupDescriptor((3,))
    for shape in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 1, 0),
                  (3, 1, 0), (2, 2, 1), (4, 2, 1)]:
        assert dim_irrep(g, shape) == hook_length_dimension(shape, 3)


def test_gl4_against_hook_content():
    g = GroupDescriptor((4,))
    for shape in [(1, 0, 0, 0), (1, 1, 0, 0), (2, 1, 0, 0), (2, 2, 1, 0),
                  (3, 1, 1, 0)]:
        assert dim_irrep(g, shape) == hook_length_dimension(shape, 4)


def test_dimension_shift_invariance():
    # adding a constant to all entries (a determinant twist) keeps the dimension
    g = GroupDescriptor((3,))
    assert dim_irrep(g, (2, 1, 0)) == dim_irrep(g, (5, 4, 3))


def test_product_group_dimension_multiplies():
    g = GroupDescriptor((2, 3))
    d = dim_irrep(g, (3, 0, 2, 1, 0))
    assert d == dim_irrep(GroupDescriptor((2,)), (3, 0)) * dim_irrep(GroupDescriptor((3,)), (2, 1, 0))


def test_torus_factor_contributes_nothing():
    g = GroupDescriptor((2,), torus_rank=2)
    assert g.rank == 4
    assert dim_irrep(g, (1, 0, 7, -3)) == 2
    f = weyl_polynomial(g)
    assert f.num_vars == 4
    assert f.degree() == 1


def test_polynomial_degree():
    for factors, torus in [((2,), 0), ((3,), 0), ((4,), 1), ((2, 2), 0)]:
        g = GroupDescriptor(factors, torus)
        positive_roots = sum(n * (n - 1) // 2 for n in g.gl_factors)
        assert weyl_polynomial(g).degree() == positive_roots
        assert positive_roots == (g.dim - g.rank) // 2


def test_non_dominant_rejected():
    with pytest.raises(DomainError):
        dim_irrep(GroupDescriptor((2,)), (0, 1))


@pytest.mark.parametrize("weight, shown", [((Q(5, 2), 1), "5/2"),
                                           ((2.9, 1), "6530219459687219/2251799813685248")])
def test_non_integral_weight_rejected(weight, shown):
    with pytest.raises(DomainError, match=rf"weight \({shown}, 1\) is not integral"):
        dim_irrep(GroupDescriptor((2,)), weight)


def test_weight_of_the_wrong_length_rejected():
    with pytest.raises(DomainError, match="does not match group rank"):
        dim_irrep(GroupDescriptor((2,), torus_rank=1), (1, 0))


def test_face_validation():
    g = GroupDescriptor((3,))
    with pytest.raises(DomainError):
        ChamberFace(g, ((1, 1),))  # sizes do not sum to 3
    face = ChamberFace(g, ((1, 2),))
    assert face.dim == 2


@pytest.mark.parametrize("gl, torus, shown", [((3.9,), 0, "3.9"), ((2,), 1.5, "1.5"),
                                              ((Q(2),), 0, "Fraction(2, 1)")])
def test_group_sizes_must_be_ints(gl, torus, shown):
    with pytest.raises(DomainError, match=re.escape(
            f"GL factor sizes and the torus rank must be ints, not {shown}")):
        GroupDescriptor(gl, torus)


def test_block_sizes_must_be_ints():
    with pytest.raises(DomainError, match=r"block sizes must be ints, not 2\.9"):
        ChamberFace(GroupDescriptor((3,)), ((2.9, 1.2),))


def test_full_chamber():
    g = GroupDescriptor((3,), torus_rank=1)
    face = ChamberFace.full_chamber(g)
    assert face.dim == 4
    assert cross_pair_count(face) == 3


def test_face_expand_and_coordinates():
    g = GroupDescriptor((3,), torus_rank=1)
    face = ChamberFace(g, ((1, 2),))
    w = face.expand((5, 2, 7))
    assert w == (Q(5), Q(2), Q(2), Q(7))
    assert face.face_coordinates(w) == (Q(5), Q(2), Q(7))
    with pytest.raises(DomainError):
        face.face_coordinates((5, 2, 3, 7))  # not block-constant


def test_face_membership():
    g = GroupDescriptor((3,))
    face = ChamberFace(g, ((1, 2),))
    assert face.face_contains_coords(face.face_coordinates((4, 1, 1)))
    assert face.face_contains_coords(face.face_coordinates((1, 1, 1)))  # boundary
    assert not face.face_contains_coords(face.face_coordinates((1, 2, 2)))  # not dominant
    with pytest.raises(DomainError):
        face.face_coordinates((4, 2, 1))      # not constant on the block (2, 1)
    chamber = ChamberFace.full_chamber(g)
    assert chamber.face_contains_coords((4, 2, 1))
    assert not chamber.face_contains_coords((1, 2, 2))


def test_restricted_polynomial_evaluates_like_full():
    g = GroupDescriptor((3,))
    face = ChamberFace(g, ((1, 2),))
    f_sigma, phi = restricted_weyl(face)
    for a in range(1, 5):
        for b in range(a + 1):
            assert f_sigma((a, b)) == dim_irrep(g, (a, b, b))
    assert phi.degree() == cross_pair_count(face) == 2
    assert phi.is_homogeneous()


def test_top_component_is_the_asymptotic_leading_term():
    # F(k * lambda) ~ phi(lambda) k^deg for lambda in the face interior
    g = GroupDescriptor((3,))
    face = ChamberFace.full_chamber(g)
    f_sigma, phi = restricted_weyl(face)
    lam = (3, 1, 0)
    k = 10 ** 6
    scaled = tuple(k * x for x in lam)
    ratio = f_sigma(scaled) / (Q(k) ** phi.degree())
    assert abs(ratio - phi(lam)) < Q(1, 100)


def test_space_dims():
    g = GroupDescriptor((3,))
    face = ChamberFace.full_chamber(g)
    full = AffineLattice.standard(3)
    p, m = space_dims(face, full)
    assert p == 3 + 3  # positive roots + face dim
    assert m == 3 + 3
    line = AffineLattice((0, 0, 0), ((1, 0, 0),))
    p2, m2 = space_dims(face, line)
    assert p2 == 6 and m2 == 4
