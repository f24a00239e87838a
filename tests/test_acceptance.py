"""Acceptance suite: one test per exit criterion, exact arithmetic throughout.

Every numeric comparison is exact (tolerance zero).  Criteria with a stated
runtime budget assert it.
"""

import itertools
import random
import time

from horoindex import (GENERAL_MODE, AffineLattice, BodySystem, ChamberFace,
                       FiniteSet, GroupDescriptor, HorosphericalSpace,
                       Polynomial, Q, SupportSet, completion_support,
                       dim_irrep, gt_lattice_count, gt_polytope, hull,
                       index_report, integrate, minkowski_sum, mixed_integral,
                       mixed_volume, pattern_dim, product_support,
                       restricted_weyl, saturation_check,
                       self_index_via_hilbert, volume)


def gl_face(n, blocks=None):
    g = GroupDescriptor((n,))
    if blocks is None:
        return ChamberFace.full_chamber(g)
    return ChamberFace(g, (tuple(blocks),))


def random_support(rng, space, n_pts, hi=2):
    """Random support: dominant integral points in face coordinates."""
    face = space.face
    pts = set()
    while len(pts) < n_pts:
        coords = []
        for sizes in face.blocks:
            coords.extend(sorted((rng.randint(0, hi) for _ in sizes), reverse=True))
        coords.extend(rng.randint(-hi, hi) for _ in range(face.group.torus_rank))
        pts.add(tuple(coords))
    return SupportSet(space, tuple(pts))


def random_dominant(rng, n, lo=0, hi=4):
    return tuple(sorted((rng.randint(lo, hi) for _ in range(n)), reverse=True))


def test_criterion_1_bezout_reproduction():
    start = time.monotonic()
    face = gl_face(3, (1, 2))
    space = HorosphericalSpace(face, AffineLattice((0, 0), ((1, 0),)), GENERAL_MODE)
    for degs in itertools.product((1, 2, 3), repeat=3):
        supports = [SupportSet(space, tuple((k, 0) for k in range(d + 1)))
                    for d in degs]
        assert index_report(space, supports).index == degs[0] * degs[1] * degs[2]
    # singleton homogeneous supports: point polytopes, index 0
    for k in (0, 1, 3):
        singletons = [SupportSet(space, ((k, 0),)) for _ in range(3)]
        assert index_report(space, singletons).index == 0
    assert time.monotonic() - start < 5.0


def test_criterion_2_flag_variety_degrees():
    start = time.monotonic()
    # GL(2) full flag: degree of the k-th power of the line bundle on P^1 is k
    space2 = HorosphericalSpace(gl_face(2), AffineLattice((0, 0), ()), GENERAL_MODE)
    for k in range(1, 6):
        s = SupportSet(space2, ((k, 0),))
        assert index_report(space2, [s]).index == k
    # GL(3) full flag threefold in the (2,1,0) embedding has degree 6
    space3 = HorosphericalSpace(gl_face(3), AffineLattice((0, 0, 0), ()), GENERAL_MODE)
    s = SupportSet(space3, ((2, 1, 0),))
    assert index_report(space3, [s, s, s]).index == 6
    assert time.monotonic() - start < 5.0


def test_criterion_3_gc_count_equals_weyl_dimension():
    start = time.monotonic()
    checked = 0
    for n in (2, 3, 4):
        g = GroupDescriptor((n,))
        for lam in itertools.product(range(5), repeat=n):
            if any(lam[i] < lam[i + 1] for i in range(n - 1)):
                continue
            assert gt_lattice_count(lam) == dim_irrep(g, lam), lam
            checked += 1
    assert checked == 15 + 35 + 70
    assert time.monotonic() - start < 60.0


def test_criterion_4_gc_minkowski_linearity():
    rng = random.Random(20240815)
    cases = [2] * 20 + [3] * 20 + [4] * 10
    for n in cases:
        hi = 4 if n <= 3 else 3
        lam = random_dominant(rng, n, 0, hi)
        gam = random_dominant(rng, n, 0, hi)
        total = tuple(a + b for a, b in zip(lam, gam))
        assert gt_polytope(total) == minkowski_sum(
            gt_polytope(lam), gt_polytope(gam)), (lam, gam)


def test_criterion_5_gc_volume_equals_top_weyl_component():
    rng = random.Random(20240816)
    faces = {2: [(1, 1), (2,)], 3: [(1, 1, 1), (1, 2), (2, 1), (3,)]}
    for n, partitions in faces.items():
        std = AffineLattice.standard(pattern_dim(n)) if pattern_dim(n) else None
        for blocks in partitions:
            face = gl_face(n, blocks)
            _, phi = restricted_weyl(face)
            for _ in range(20):
                # strictly decreasing block values: relative interior of the face
                vals = sorted(rng.sample(range(0, 25), len(blocks)), reverse=True)
                lam = face.expand(vals)
                gt = gt_polytope(tuple(lam))
                assert volume(gt, std) == phi(vals), (blocks, vals)


def test_criterion_6_triple_route_agreement():
    start = time.monotonic()
    rng = random.Random(20240817)
    count = 0

    def check(space, supports):
        nonlocal count
        report = index_report(space, supports)  # raises on any disagreement
        assert report.integral_route == report.lift_route == report.index
        if report.hilbert_route is not None:
            assert report.hilbert_route == report.index
        count += 1

    # GL(2) quotient (Hilbert route runs on the diagonal cases)
    q2 = HorosphericalSpace.quotient(gl_face(2))
    for i in range(50):
        if i % 2 == 0:
            s = random_support(rng, q2, rng.randint(1, 4), hi=3)
            check(q2, [s] * 3)
        else:
            check(q2, [random_support(rng, q2, rng.randint(1, 3), hi=3)
                       for _ in range(3)])

    # GL(3) quotient on the two wall faces
    for blocks in ((1, 2), (2, 1)):
        q3 = HorosphericalSpace.quotient(gl_face(3, blocks))
        for i in range(15):
            if i % 3 == 0:
                s = random_support(rng, q3, rng.randint(1, 3))
                check(q3, [s] * 4)
            else:
                check(q3, [random_support(rng, q3, rng.randint(1, 3))
                           for _ in range(4)])

    # general mode: rank-1 and index-2 sublattices
    face3 = gl_face(3, (1, 2))
    for basis in (((1, 0),), ((2, 0),)):
        sp = HorosphericalSpace(face3, AffineLattice((0, 0), basis), GENERAL_MODE)
        step = basis[0][0]
        for _ in range(8):
            supports = [SupportSet(sp, tuple((step * k, 0)
                                             for k in range(rng.randint(1, 3) + 1)))
                        for _ in range(3)]
            check(sp, supports)

    face2 = gl_face(2)
    pools = {
        ((1, 0),): [(k, 0) for k in range(4)],
        ((2, 0),): [(2 * k, 0) for k in range(4)],
        ((1, 1), (2, 0)): [(i + 2 * j, i) for i in range(3) for j in range(3)],
    }
    for basis, pool in pools.items():
        sp = HorosphericalSpace(face2, AffineLattice((0, 0), basis), GENERAL_MODE)
        for _ in range(4):
            supports = [SupportSet(sp, tuple(rng.sample(pool, rng.randint(1, 3))))
                        for _ in range(sp.num_supports)]
            check(sp, supports)

    # GL(3) full chamber diagonals: all three routes at p = 6
    q3full = HorosphericalSpace.quotient(gl_face(3))
    for weights in [((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)),
                    ((0, 0, 0), (2, 1, 0)),
                    ((1, 0, 0), (1, 1, 0))]:
        s = SupportSet(q3full, weights)
        check(q3full, [s] * 6)

    assert count >= 100, count
    assert time.monotonic() - start < 600.0


def test_criterion_7_torus_bernstein_kushnirenko():
    face = ChamberFace.full_chamber(GroupDescriptor((), torus_rank=2))
    space = HorosphericalSpace.quotient(face)
    for d1, d2 in [(1, 1), (1, 2), (2, 3), (3, 3)]:
        s1 = SupportSet(space, ((0, 0), (d1, 0), (0, d1)))
        s2 = SupportSet(space, ((0, 0), (d2, 0), (0, d2)))
        assert index_report(space, [s1, s2]).index == d1 * d2
    square = SupportSet(space, ((0, 0), (1, 0), (0, 1), (1, 1)))
    assert index_report(space, [square, square]).index == 2


def test_criterion_8_saturation():
    rng = random.Random(20240818)
    failures = []
    for trial in range(200):
        dim = rng.randint(1, 3)
        pts = frozenset(tuple(rng.randint(0, 4) for _ in range(dim))
                        for _ in range(rng.randint(1, 6)))
        a = FiniteSet(pts)
        # saturation holds for all sufficiently large levels; demand a run of
        # three consecutive levels within a small cap and report any set that
        # never stabilizes
        truth = {}

        def sat(n):
            if n not in truth:
                truth[n] = saturation_check(a, n)
            return truth[n]

        stable = next((n for n in range(7)
                       if sat(n) and sat(n + 1) and sat(n + 2)), None)
        if stable is None:
            failures.append(("no stable saturation by level 6", sorted(pts)))
    assert not failures, failures


def test_criterion_9_polarization_algebra():
    rng = random.Random(20240819)
    for dim in (1, 2, 3):
        std = AffineLattice.standard(dim)
        bodies = tuple(hull([tuple(Q(rng.randint(0, 2)) for _ in range(dim))
                             for _ in range(4)]) for _ in range(dim))
        # symmetry: every permutation, exhaustively (N = dim <= 3 here)
        values = {mixed_volume(BodySystem(perm, std))
                  for perm in itertools.permutations(bodies)}
        assert len(values) == 1
        # multilinearity in the first slot
        extra = hull([tuple(Q(rng.randint(0, 2)) for _ in range(dim))
                      for _ in range(4)])
        lhs = mixed_volume(BodySystem((minkowski_sum(bodies[0], extra),)
                                      + bodies[1:], std))
        rhs = (mixed_volume(BodySystem(bodies, std))
               + mixed_volume(BodySystem((extra,) + bodies[1:], std)))
        assert lhs == rhs
        # diagonal identity
        body = hull([tuple(Q(rng.randint(0, 3)) for _ in range(dim))
                     for _ in range(dim + 3)])
        if body.dim == dim:
            assert mixed_volume(BodySystem((body,) * dim, std)) == volume(body, std)

    # N = 4 bodies: mixed integral of a homogeneous linear form in dim 3
    std3 = AffineLattice.standard(3)
    x = Polynomial.variable(0, 3)
    bodies4 = tuple(hull([tuple(Q(rng.randint(0, 2)) for _ in range(3))
                          for _ in range(4)]) for _ in range(4))
    values = {mixed_integral(x, BodySystem(perm, std3))
              for perm in itertools.permutations(bodies4)}
    assert len(values) == 1
    # diagonal identity for the integral functional
    body = hull([tuple(Q(rng.randint(0, 3)) for _ in range(3)) for _ in range(8)])
    if body.dim == 3:
        assert (mixed_integral(x, BodySystem((body,) * 4, std3))
                == integrate(x, body, std3))


def test_criterion_10_completion_invariance_and_product_additivity():
    rng = random.Random(20240820)
    face = gl_face(3, (1, 2))
    space = HorosphericalSpace(face, AffineLattice((0, 0), ((1, 0),)), GENERAL_MODE)

    def ray(d, sparse=False):
        if sparse and d >= 2:
            ks = sorted({0, d} | {rng.randint(0, d) for _ in range(d // 2)})
        else:
            ks = range(d + 1)
        return SupportSet(space, tuple((k, 0) for k in ks))

    for _ in range(25):
        d = rng.randint(2, 4)
        sparse = ray(d, sparse=True)
        others = [ray(rng.randint(1, 3)), ray(rng.randint(1, 3))]
        a = index_report(space, [sparse] + others).index
        b = index_report(space, [completion_support(sparse)] + others).index
        assert a == b

    for _ in range(25):
        s1 = ray(rng.randint(1, 3))
        s2 = ray(rng.randint(1, 3))
        others = [ray(rng.randint(1, 3)), ray(rng.randint(1, 3))]
        lhs = index_report(space, [product_support(s1, s2)] + others).index
        rhs = (index_report(space, [s1] + others).index
               + index_report(space, [s2] + others).index)
        assert lhs == rhs
