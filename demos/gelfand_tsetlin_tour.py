"""A tour of Gelfand-Tsetlin polytopes.

For a dominant weight of GL(n) the interlacing patterns form a rational
polytope whose integral points count the dimension of the irreducible
representation, whose construction is Minkowski-linear in the weight, and
whose volume is the top term of the Weyl dimension polynomial.
"""

from horoindex import (AffineLattice, ChamberFace, GroupDescriptor,
                       dim_irrep, gt_lattice_count, gt_polytope,
                       minkowski_sum, pattern_dim, restricted_weyl, volume)


def main():
    lam = (2, 1, 0)
    gt = gt_polytope(lam)
    print(f"weight {lam}: polytope dim {gt.dim}, "
          f"{len(gt.vertices)} vertices")
    print(f"  lattice patterns: {gt_lattice_count(lam)}")
    print(f"  Weyl dimension:   {dim_irrep(GroupDescriptor((3,)), lam)}")

    gam = (3, 1, 1)
    total = tuple(a + b for a, b in zip(lam, gam))
    same = gt_polytope(total) == minkowski_sum(gt_polytope(lam), gt_polytope(gam))
    print(f"Minkowski linearity at {lam} + {gam}: {same}")

    face = ChamberFace.full_chamber(GroupDescriptor((3,)))
    _, phi = restricted_weyl(face)
    std = AffineLattice.standard(pattern_dim(3))
    for lam in [(2, 1, 0), (4, 2, 0), (5, 3, 1)]:
        v = volume(gt_polytope(lam), std)
        print(f"volume at {lam}: {v} = phi{lam} = {phi(lam)}")


if __name__ == "__main__":
    main()
