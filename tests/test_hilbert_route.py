"""The integer Hilbert route against the expanded `Fraction` one.

Dimensions on a face are products of integer forms over one divisor
(`weyl.dimension_forms`).  `hilbert_function` sums them over each slice of
the lattice points of the dilated moment polytope, an arithmetic
progression, with `polynomials.progression_sum`, and `product_values`
evaluates them at single points.  The reference in `expanded_weyl.py`
expands Weyl's formula and evaluates it in `Fraction`s at every point.
"""

import itertools
import random
from fractions import Fraction

import pytest

from expanded_weyl import (expanded_restriction, expanded_weyl_polynomial,
                           hilbert_function_by_expansion, top_component)
from horoindex import (AffineLattice, ChamberFace, DomainError, GroupDescriptor,
                       HorosphericalSpace, Q, SupportSet, ValidationError,
                       cross_pair_count, dim_irrep, hilbert_function, hull,
                       lattice_points, restricted_weyl, weyl_polynomial)
from horoindex import spaces
from horoindex.polynomials import product_values
from horoindex.weyl import dimension_forms

GROUPS = [((2,), 0), ((3,), 0), ((4,), 0), ((2, 3), 1), ((3, 2), 0),
          ((), 2), ((1,), 1), ((2,), 2)]


def compositions(n):
    """Every ordered partition of n into positive parts."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def faces(gl, torus):
    group = GroupDescriptor(gl, torus)
    for blocks in itertools.product(*(list(compositions(n)) for n in gl)):
        yield ChamberFace(group, blocks)


ALL_FACES = [face for gl, torus in GROUPS for face in faces(gl, torus)]


@pytest.mark.parametrize("face", ALL_FACES, ids=lambda f: f"{f.group.gl_factors}"
                         f"T{f.group.torus_rank}{f.blocks}")
def test_factored_form_equals_the_expanded_restriction(face):
    expanded = expanded_restriction(face)
    f_sigma, phi = restricted_weyl(face)
    assert f_sigma == expanded
    assert phi == top_component(expanded)
    forms, divisor = dimension_forms(face)
    assert cross_pair_count(face) == len(forms) == phi.degree()
    rng = random.Random(repr(face))
    points = [tuple(rng.randint(-4, 6) for _ in range(face.dim)) for _ in range(40)]
    for point, value in zip(points, product_values(forms, points)):
        assert type(value) is int
        assert Fraction(value, divisor) == expanded(point)


@pytest.mark.parametrize("gl, torus", GROUPS)
def test_weyl_polynomial_and_dim_irrep_match_the_expansion(gl, torus):
    group = GroupDescriptor(gl, torus)
    expanded = expanded_weyl_polynomial(group)
    assert weyl_polynomial(group) == expanded
    rng = random.Random(f"{gl}/{torus}")
    for _ in range(20):
        weight = []
        for n in gl:
            weight.extend(sorted((rng.randint(-3, 5) for _ in range(n)), reverse=True))
        weight.extend(rng.randint(-3, 5) for _ in range(torus))
        assert dim_irrep(group, weight) == expanded(weight)


HILBERT_CASES = [((3,), 0, None), ((3,), 0, (1, 2)), ((3,), 0, (2, 1)),
                 ((2,), 1, None), ((2, 2), 0, None), ((4,), 0, (2, 2)), ((2,), 0, None)]


def random_support(space, rng):
    face = space.face
    pts = {(0,) * face.dim}
    for _ in range(rng.randint(1, 4)):
        coords = []
        for sizes in face.blocks:
            coords.extend(sorted((rng.randint(0, 2) for _ in sizes), reverse=True))
        coords.extend(rng.randint(-1, 2) for _ in range(face.group.torus_rank))
        pts.add(tuple(coords))
    return SupportSet(space, tuple(pts))


@pytest.mark.parametrize("gl, torus, blocks", HILBERT_CASES)
def test_hilbert_function_equals_the_expanded_sum(gl, torus, blocks):
    group = GroupDescriptor(gl, torus)
    face = (ChamberFace.full_chamber(group) if blocks is None
            else ChamberFace(group, (blocks,) + tuple((1,) * n for n in gl[1:])))
    space = HorosphericalSpace.quotient(face)
    rng = random.Random(f"{gl}/{torus}/{blocks}")
    for _ in range(3):
        support = random_support(space, rng)
        for k in range(4):
            value = hilbert_function(space, support, k)
            assert type(value) is int
            assert value == hilbert_function_by_expansion(space, support, k)


def gl3_space_and_support():
    space = HorosphericalSpace.quotient(ChamberFace.full_chamber(GroupDescriptor((3,))))
    return space, SupportSet(space, ((0, 0, 0), (2, 1, 0), (2, 2, 2)))


def test_a_wrong_divisor_leaves_a_remainder_and_is_caught(monkeypatch):
    space, _ = gl3_space_and_support()
    forms, divisor = dimension_forms(space.face)
    assert divisor == 2  # the forms give 16 at (2, 1, 0), where the dimension is 8
    monkeypatch.setattr(spaces, "dimension_forms", lambda face: (forms, 3))
    with pytest.raises(ValidationError, match=r"gave 16/3 at \(2, 1, 0\)"):
        hilbert_function(space, SupportSet(space, ((2, 1, 0),)), 1)


def test_a_nonpositive_dimension_is_caught(monkeypatch):
    space, support = gl3_space_and_support()
    forms, divisor = dimension_forms(space.face)
    flipped = forms + (((0, 0, 0), -1),)
    monkeypatch.setattr(spaces, "dimension_forms", lambda face: (flipped, divisor))
    with pytest.raises(ValidationError, match=r"gave -1 at \(0, 0, 0\)"):
        hilbert_function(space, support, 1)


def test_dim_irrep_names_a_non_dominant_weight_in_plain_numbers():
    with pytest.raises(DomainError, match=r"weight \(0, 1\) is not dominant"):
        dim_irrep(GroupDescriptor((2,)), (0, 1))


def test_lattice_points_are_sorted_int_tuples_on_integral_lattices():
    square = hull([(0, 0), (3, 0), (0, 3), (3, 3)])
    skew = AffineLattice((1, 0), ((2, 0), (1, 1)))
    for lattice in (AffineLattice.standard(2), skew):
        pts = lattice_points(square, lattice)
        assert pts and pts == sorted(pts)
        assert all(type(x) is int for p in pts for x in p)
        assert all(lattice.contains(p) for p in pts)
    assert len(lattice_points(square, skew)) == 8


def test_lattice_points_are_fractions_on_a_rational_coset():
    seg = hull([(Q(0), Q(0)), (Q(4), Q(0))])
    coset = AffineLattice((Q(1, 2), Q(0)), ((1, 0),))
    pts = lattice_points(seg, coset)
    assert pts == [(Q(2 * i + 1, 2), 0) for i in range(4)]
    assert all(type(x) is Fraction for p in pts for x in p)
