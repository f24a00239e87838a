import itertools
import json
import random

import pytest

from horoindex import (AffineLattice, ChamberFace, DomainError,
                       GroupDescriptor, Polynomial, Q, dim_irrep,
                       fiber_vertices, free_pattern_entries, gt_lattice_count,
                       gt_polytope, hull, integrate, lattice_points,
                       minkowski_sum, newton_lift, pattern_dim,
                       pattern_positions, restricted_weyl, volume)
from horoindex import polytopes
from horoindex.cli import main
from horoindex.gelfand_tsetlin import _check_weight, _gt_vertices
from horoindex.linalg import rank
from interlacing import contains_pattern, gt_inequalities


def random_dominant(rng, n, lo=0, hi=4):
    return tuple(sorted((rng.randint(lo, hi) for _ in range(n)), reverse=True))


def test_pattern_positions_order():
    assert pattern_positions(3) == [(2, 1), (2, 2), (1, 1)]
    assert pattern_dim(4) == 6


def test_gl2_polytope_is_a_segment():
    gt = gt_polytope((3, 1))
    assert gt.dim == 1
    assert gt.vertices == ((Q(1),), (Q(3),))


def test_gl3_210_count():
    assert gt_lattice_count((2, 1, 0)) == 8
    assert gt_lattice_count((1, 0, 0)) == 3
    assert gt_lattice_count((1, 1, 0)) == 3


def test_count_equals_lattice_points_of_polytope():
    rng = random.Random(103)
    for n in (2, 3):
        for _ in range(5):
            lam = random_dominant(rng, n)
            gt = gt_polytope(lam)
            std = AffineLattice.standard(pattern_dim(n))
            assert gt_lattice_count(lam) == len(lattice_points(gt, std))


def test_count_equals_weyl_dimension():
    rng = random.Random(107)
    for n in (2, 3, 4):
        g = GroupDescriptor((n,))
        for _ in range(4):
            lam = random_dominant(rng, n)
            assert gt_lattice_count(lam) == dim_irrep(g, lam)


def test_count_counts_many_patterns_without_the_weyl_formula():
    weight = (20, 16, 12, 8, 4, 0)
    assert gt_lattice_count(weight) == dim_irrep(GroupDescriptor((6,)), weight) == 30517578125


def test_gt_polytope_is_the_hull_of_its_vertices_with_no_core(monkeypatch, capsys):
    weights = [lam for n in (2, 3, 4) for lam in itertools.product(range(4), repeat=n)
               if all(a >= b for a, b in zip(lam, lam[1:]))]
    weights += [(Q(5, 2), Q(1, 3), 0), (Q(3, 2), Q(1, 2), Q(1, 2), Q(-1, 3))]
    oracles = [hull(_gt_vertices(_check_weight(lam))) for lam in weights]

    def no_core(coords):
        raise AssertionError("_hull_core was called on a Gelfand-Tsetlin polytope")

    gt_polytope.cache_clear()
    monkeypatch.setattr(polytopes, "_hull_core", no_core)
    for lam, oracle in zip(weights, oracles):
        gt = gt_polytope(lam)
        for field in ("den", "points", "span_basis", "span_pivots", "facets", "fan"):
            assert getattr(gt, field) == getattr(oracle, field), (lam, field)
    assert main(["gc", "--n", "4", "--weight", "3,2,1,0"]) == 0
    assert json.loads(capsys.readouterr().out)["volume"] == "1"


def test_degenerate_weight_gives_lower_dimensional_polytope():
    gt = gt_polytope((2, 2, 0))
    # the (2,1) entry is pinned to 2
    assert gt.dim < pattern_dim(3)
    assert gt_lattice_count((2, 2, 0)) == dim_irrep(GroupDescriptor((3,)), (2, 2, 0))


def test_minkowski_linearity():
    rng = random.Random(109)
    for n in (2, 3, 4):
        for _ in range(4):
            lam = random_dominant(rng, n)
            gam = random_dominant(rng, n)
            total = tuple(a + b for a, b in zip(lam, gam))
            assert gt_polytope(total) == minkowski_sum(gt_polytope(lam), gt_polytope(gam))


def test_volume_is_top_weyl_component():
    rng = random.Random(113)
    for n in (2, 3):
        face = ChamberFace.full_chamber(GroupDescriptor((n,)))
        _, phi = restricted_weyl(face)
        std = AffineLattice.standard(pattern_dim(n))
        for _ in range(6):
            lam = tuple(sorted((rng.randint(0, 6) for _ in range(n)), reverse=True))
            if len(set(lam)) < n:
                continue  # needs the relative interior for full dimension
            assert volume(gt_polytope(lam), std) == phi(lam)


def test_non_dominant_rejected():
    with pytest.raises(DomainError):
        gt_polytope((0, 1))


@pytest.mark.parametrize("weight, shown", [((Q(5, 2), 1), "5/2"),
                                           ((2.9, 1), "6530219459687219/2251799813685248")])
def test_count_rejects_a_non_integral_weight(weight, shown):
    with pytest.raises(DomainError, match=rf"weight \({shown}, 1\) is not integral"):
        gt_lattice_count(weight)


def test_count_names_a_non_dominant_weight():
    with pytest.raises(DomainError, match=r"weight \(0, 1\) is not dominant"):
        gt_lattice_count((0, 1))


def test_empty_weight_rejected():
    with pytest.raises(DomainError):
        gt_lattice_count(())
    with pytest.raises(DomainError):
        gt_polytope(())


def test_inequalities_describe_the_polytope():
    lam = (3, 1, 0)
    rows, rhs = gt_inequalities(lam)
    for v in gt_polytope(lam).vertices:
        assert all(sum(a * x for a, x in zip(r, v)) <= b for r, b in zip(rows, rhs))
    assert contains_pattern(lam, (2, 1, 1))
    assert not contains_pattern(lam, (2, 2, 1))  # 2 >= x11 >= 2 would force x11=2


def oracle_weights(rng, n):
    integral = random_dominant(rng, n)
    degenerate = random_dominant(rng, n, 0, 1)
    rational = tuple(sorted((Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)),
                            reverse=True))
    return integral, degenerate, rational


def test_constructed_vertices_are_the_vertices():
    rng = random.Random(127)
    for n in (2, 3, 4):
        for _ in range(3):
            for lam in oracle_weights(rng, n):
                vs = _gt_vertices(_check_weight(lam))
                rows, rhs = gt_inequalities(lam)
                for v in vs:
                    slack = [b - sum(a * x for a, x in zip(r, v)) for r, b in zip(rows, rhs)]
                    assert min(slack) >= 0, (lam, v)
                    tight = [r for r, s in zip(rows, slack) if s == 0]
                    assert rank(tight) == pattern_dim(n), (lam, v)
                assert hull(vs).vertices == tuple(vs), lam


def test_free_pattern_entries():
    g = GroupDescriptor((3,))
    full = ChamberFace.full_chamber(g)
    assert free_pattern_entries(full) == [[0, 1, 2]]
    face = ChamberFace(g, ((1, 2),))
    # with lambda = (a, b, b): row 2 is (x21 in [b,a], x22 = b), row 1 in [b, x21]
    assert free_pattern_entries(face) == [[0, 2]]
    point = ChamberFace(g, ((3,),))
    assert free_pattern_entries(point) == [[]]


def test_fiber_vertices_match_projected_gt_polytope():
    g = GroupDescriptor((3,))
    face = ChamberFace(g, ((1, 2),))
    verts = fiber_vertices(face, (3, 1))
    expected = sorted({(v[0], v[2]) for v in gt_polytope((3, 1, 1)).vertices})
    assert sorted(set(verts)) == expected


def test_newton_lift_fubini():
    # lift over the dominant triangle 0 <= b <= a <= 1 for GL(2):
    # volume = int over triangle of phi(a, b) = (a - b)
    g = GroupDescriptor((2,))
    face = ChamberFace.full_chamber(g)
    base = hull([(0, 0), (1, 0), (1, 1)])
    lift = newton_lift(face, base)
    assert lift.dim == 3
    std3 = AffineLattice.standard(3)
    a = Polynomial.variable(0, 2)
    b = Polynomial.variable(1, 2)
    tri_lattice = AffineLattice.standard(2)
    assert volume(lift, std3) == integrate(a - b, base, tri_lattice) == Q(1, 6)


def test_newton_lift_linear_in_base():
    g = GroupDescriptor((2,))
    face = ChamberFace.full_chamber(g)
    b1 = hull([(0, 0), (2, 0)])
    b2 = hull([(0, 0), (1, 1)])
    lhs = newton_lift(face, minkowski_sum(b1, b2))
    rhs = minkowski_sum(newton_lift(face, b1), newton_lift(face, b2))
    assert lhs == rhs


def test_newton_lift_requires_face_coords():
    g = GroupDescriptor((2,))
    face = ChamberFace.full_chamber(g)
    with pytest.raises(DomainError):
        newton_lift(face, hull([(0, 0, 0), (1, 0, 0)]))
    with pytest.raises(DomainError):
        newton_lift(face, hull([(0, 1)]))  # not dominant


def test_newton_lift_names_a_rational_base_vertex():
    face = ChamberFace(GroupDescriptor((3,)), ((1, 2),))
    with pytest.raises(DomainError, match=r"base vertex \(1/2, 1\) is not inside the face"):
        newton_lift(face, hull([(Q(1, 2), 1), (3, 0)]))
