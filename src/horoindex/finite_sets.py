"""The semigroup of finite subsets of a lattice under pointwise addition.

Convex hulls give a semigroup homomorphism onto polytopes; two sets are
"analogous" (equal in the Grothendieck semigroup) exactly when their hulls
coincide, and the completion of a set is the full set of lattice points of
its hull.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError
from .lattices import AffineLattice
from .polytopes import Polytope, dilate, hull, lattice_points
from .rationals import exact_point, format_point


@dataclass(frozen=True)
class FiniteSet:
    """A nonempty finite set of lattice points, with its ambient lattice.

    The lattice defaults to Z^n; sets carried on a sublattice or coset keep
    that lattice so completion respects it.
    """

    points: frozenset
    lattice: AffineLattice = field(default=None)

    def __post_init__(self):
        pts = frozenset(exact_point(p, "finite-set points") for p in self.points)
        if not pts:
            raise DomainError("finite set must be nonempty")
        dims = {len(p) for p in pts}
        if len(dims) != 1:
            raise DomainError("points of unequal dimension")
        lattice = self.lattice
        if lattice is None:
            lattice = AffineLattice.standard(dims.pop())
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "lattice", lattice)
        for p in self.points:
            if not self.lattice.contains(p):
                raise DomainError(f"point {format_point(p)} not in the ambient lattice")

    @property
    def ambient_dim(self) -> int:
        return len(next(iter(self.points)))

    def hull(self) -> Polytope:
        return hull(self.points)

    def __len__(self):
        return len(self.points)


def sumset(a: FiniteSet, b: FiniteSet) -> FiniteSet:
    if a.lattice != b.lattice:
        raise DomainError("sumset of sets over different lattices")
    pts = {tuple(x + y for x, y in zip(p, q)) for p in a.points for q in b.points}
    return FiniteSet(frozenset(pts), a.lattice)


def completion_set(a: FiniteSet) -> FiniteSet:
    """All ambient-lattice points in the convex hull of a."""
    pts = lattice_points(a.hull(), a.lattice)
    return FiniteSet(frozenset(pts), a.lattice)


def analogous(a: FiniteSet, b: FiniteSet) -> bool:
    """True iff a and b have the same image in the Grothendieck semigroup,
    i.e. equal convex hulls."""
    if a.lattice != b.lattice:
        raise DomainError("analogy of sets over different lattices")
    return a.hull() == b.hull()


def saturation_check(a: FiniteSet, n: int) -> bool:
    """Check A + nD_Z = (n+1)D_Z = D_Z + nD_Z, with D = hull(A) and kD_Z
    read as 'lattice points of the k-fold dilation of D'.
    """
    if n < 0:
        raise DomainError("saturation level must be nonnegative")
    d = a.hull()

    def dilated_points(k):
        if k == 0:
            origin = (0,) * a.ambient_dim
            return FiniteSet(frozenset([origin]), a.lattice)
        return FiniteSet(frozenset(lattice_points(dilate(d, k), a.lattice)), a.lattice)

    n_pts = dilated_points(n)
    target = dilated_points(n + 1)
    left = sumset(a, n_pts)
    right = sumset(dilated_points(1), n_pts)
    return left.points == target.points and right.points == target.points
