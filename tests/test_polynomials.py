import contextlib
import io
import random
from pathlib import Path

import pytest

from expanded_integral import expanded_integral
from expanded_weyl import top_component
from horoindex import (AffineLattice, ChamberFace, DomainError, GroupDescriptor,
                       HorosphericalSpace, Polynomial, Q, SupportSet, hull, index_report,
                       integrate, restricted_weyl, spaces, volume)
from horoindex.cli import main

STD2 = AffineLattice.standard(2)
STD3 = AffineLattice.standard(3)


def test_arithmetic_and_eval():
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p((3, 2)) == 5


def test_zero_coefficients_dropped():
    x = Polynomial.variable(0, 1)
    p = x - x
    assert p.is_zero()
    assert p.terms == {}


def test_power():
    x = Polynomial.variable(0, 1)
    assert (x + 1) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + Polynomial.constant(1, 1)


def test_top_component_and_homogeneity():
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    p = x * y + x + 2
    assert top_component(p) == x * y
    assert p - top_component(p) == x + 2
    assert top_component(Polynomial.zero(2)).is_zero()
    assert not p.is_homogeneous()
    assert (x * y).is_homogeneous()


def test_compose_affine_matches_direct_substitution():
    rng = random.Random(31)
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    p = x ** 2 * y + 3 * y ** 2 - x + 7
    matrix = [(2, 1), (0, -1)]  # x = 2u + v, y = -v
    offset = (1, 2)
    q = p.compose_affine(matrix, offset)
    for _ in range(20):
        u, v = Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3))
        assert q((u, v)) == p((1 + 2 * u + v, 2 - v))


def test_compose_affine_to_fewer_vars():
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    p = x * y
    q = p.compose_affine([(1,), (1,)], (0, 1))  # x = t, y = 1 + t
    t = Polynomial.variable(0, 1)
    assert q == t * (t + 1)


def test_integral_of_one_is_volume():
    rng = random.Random(37)
    for _ in range(10):
        pts = [tuple(Q(rng.randint(-3, 3)) for _ in range(2)) for _ in range(6)]
        p = hull(pts)
        one = Polynomial.constant(1, 2)
        assert integrate(one, p, STD2) == volume(p, STD2)


def test_integral_xy_over_unit_square():
    square = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    assert integrate(x * y, square, STD2) == Q(1, 4)
    assert integrate(x ** 2, square, STD2) == Q(1, 3)


def test_integral_over_standard_simplex():
    tri = hull([(0, 0), (1, 0), (0, 1)])
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    # int over simplex of x^a y^b = a! b! / (a+b+2)!
    assert integrate(x, tri, STD2) == Q(1, 6)
    assert integrate(x * y, tri, STD2) == Q(1, 24)
    assert integrate(x ** 2 * y, tri, STD2) == Q(2, 120)


def test_iterated_integral_oracle():
    # int_{0<=y<=x<=1} (x - y) dx dy = 1/6, computed by iterated integration
    tri = hull([(0, 0), (1, 0), (1, 1)])
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    assert integrate(x - y, tri, STD2) == Q(1, 6)


def test_integral_additive_in_translation():
    tri = hull([(0, 0), (2, 0), (0, 2)])
    x = Polynomial.variable(0, 2)
    shifted = hull([(a + 1, b) for a, b in tri.vertices])
    one = Polynomial.constant(1, 2)
    # int over shifted of x = int over tri of (x+1)
    assert integrate(x, shifted, STD2) == integrate(x + one, tri, STD2)


def test_integral_over_point():
    pt = hull([(2, 3)])
    x = Polynomial.variable(0, 2)
    y = Polynomial.variable(1, 2)
    assert integrate(x * y, pt, STD2) == 6


def test_integral_over_lower_dimensional_body():
    # segment (0,0)-(2,2); lattice steps along it are (1,1), length 2 steps
    seg = hull([(0, 0), (2, 2)])
    x = Polynomial.variable(0, 2)
    one = Polynomial.constant(1, 2)
    assert integrate(one, seg, STD2) == 2
    # x runs 0..2 linearly over 2 lattice steps: integral = 2 * mean = 2
    assert integrate(x, seg, STD2) == 2


def test_dimension_mismatch_rejected():
    tri = hull([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(DomainError):
        integrate(Polynomial.variable(0, 3), tri, STD2)


@pytest.mark.parametrize("exp", [(-1, 1), (1.5, 0), (Q(1), 0)])
def test_exponents_must_be_nonnegative_ints(exp):
    with pytest.raises(DomainError, match="nonnegative integers"):
        Polynomial({exp: 1}, 2)


@pytest.mark.parametrize("n", [-1, 1.5])
def test_power_rejects_a_bad_exponent(n):
    with pytest.raises(DomainError, match="nonnegative integer"):
        Polynomial.variable(0, 1) ** n


@pytest.mark.parametrize("build", [
    lambda: Polynomial.constant(1.5, 1),
    lambda: Polynomial.linear((1.0, 2)),
    lambda: Polynomial.linear((1, 2), 0.5),
    lambda: Polynomial.constant(1, 1) * 0.25,
    lambda: 0.25 * Polynomial.constant(1, 1),
    lambda: Polynomial.constant(1, 1) + 0.5,
    lambda: Polynomial({(1,): 0.5}, 1),
])
def test_a_float_coefficient_is_rejected_by_name(build):
    with pytest.raises(DomainError, match=r"coefficients must be ints or Fractions, "
                                          r"not the float \d\.\d+"):
        build()


def test_int_and_fraction_coefficients_are_kept():
    assert Polynomial.linear((1, Q(1, 2)), 3).terms == {(0, 0): 3, (1, 0): 1, (0, 1): Q(1, 2)}
    assert (Polynomial.constant(Q(1, 2), 1) * 3).terms == {(0,): Q(3, 2)}


ROUTE_FACES = [ChamberFace(GroupDescriptor((3,)), (blocks,))
               for blocks in [(1, 1, 1), (1, 2), (2, 1), (3,)]]
ROUTE_FACES += [ChamberFace(GroupDescriptor((2,), 1), (blocks,)) for blocks in [(1, 1), (2,)]]
ROUTE_FACES.append(ChamberFace(GroupDescriptor((4,)), ((1, 1, 2),)))


def random_integer_polytope(rng, n, m):
    """The hull of an integer origin and 2-5 integer combinations of m
    random integer directions in Z^n: dimension m or less."""
    origin = tuple(rng.randint(-2, 3) for _ in range(n))
    directions = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(m)]
    points = [origin]
    for _ in range(rng.randint(2, 5)):
        coeffs = [rng.randint(0, 2) for _ in range(m)]
        points.append(tuple(o + sum(c * d[i] for c, d in zip(coeffs, directions))
                            for i, o in enumerate(origin)))
    return hull(points)


@pytest.mark.parametrize("face", ROUTE_FACES, ids=lambda f: f"{f.group.gl_factors}"
                         f"T{f.group.torus_rank}{f.blocks}")
def test_integral_route_phi_matches_the_expansion(face):
    """The integral route's integrand, phi from restricted_weyl, integrated
    over random integer polytopes of every dimension up to the face's."""
    _, phi = restricted_weyl(face)
    lattice = AffineLattice.standard(face.dim)
    rng = random.Random(repr(face))
    dims = set()
    for m in range(face.dim + 1):
        for _ in range(4):
            p = random_integer_polytope(rng, face.dim, m)
            dims.add(p.dim)
            assert integrate(phi, p, lattice) == expanded_integral(phi, p, lattice)
    assert dims == set(range(face.dim + 1))


def test_queries_expand_no_polynomial(monkeypatch):
    """`compose_affine` is off the query path: a GL(3) wall-face index
    report (four supports of 2-3 points, as in the gl3-lift benchmark) and
    a `mixed-integral` CLI run integrate without calling it."""
    calls = {"compose_affine": 0, "integrate": 0}
    compose, route_integrate = Polynomial.compose_affine, spaces.integrate

    def counting_compose(self, *args):
        calls["compose_affine"] += 1
        return compose(self, *args)

    def counting_integrate(*args):
        calls["integrate"] += 1
        return route_integrate(*args)

    monkeypatch.setattr(Polynomial, "compose_affine", counting_compose)
    monkeypatch.setattr(spaces, "integrate", counting_integrate)
    space = HorosphericalSpace.quotient(ChamberFace(GroupDescriptor((3,)), ((1, 2),)))
    supports = [SupportSet(space, pts) for pts in [
        ((0, 0), (2, 1)), ((1, 0), (2, 2), (0, 0)), ((2, 0), (1, 1)), ((0, 0), (2, 2), (1, 0))]]
    spaces.memo_clear()
    report = index_report(space, supports)
    assert report.integral_route == report.index and calls["integrate"] > 0
    golden = Path(__file__).resolve().parent / "golden" / "integral_rational.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["mixed-integral", str(golden)]) == 0
    assert calls["compose_affine"] == 0
    tri = hull([(0, 0), (1, 0), (0, 1)])
    expanded_integral(Polynomial.variable(0, 2), tri, STD2)
    assert calls["compose_affine"] == 1  # the counter sees the expansion
