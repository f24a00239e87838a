"""Polarization of homogeneous polytope functionals.

Mixed volumes and mixed integrals are obtained by subset inclusion-exclusion
over Minkowski sums: for a functional P homogeneous of degree N,

    B(D_1, ..., D_N) = (1/N!) * sum over nonempty S of (-1)^(N-|S|) P(sum_S D_i).

Empty subsets contribute nothing (a homogeneous functional of positive
degree vanishes at a point).  All bodies must be parallel to the system's
direction space Pi; a body (or subset sum) of dimension below dim(Pi) has
Pi-relative volume zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .errors import DomainError
from .lattices import AffineLattice
from .polynomials import Polynomial, integrate
from .polytopes import minkowski_sum, volume
from .rationals import Q, ZERO


@dataclass(frozen=True)
class BodySystem:
    """A tuple of convex bodies parallel to a common direction space Pi.

    The direction space carries the lattice that normalizes all measures.
    """

    bodies: tuple
    direction: AffineLattice

    def __post_init__(self):
        bodies = tuple(self.bodies)
        object.__setattr__(self, "bodies", bodies)
        for body in bodies:
            if body.ambient_dim != self.direction.ambient_dim:
                raise DomainError("body/direction ambient dimension mismatch")
            for row in body.span_basis:
                if not self.direction_contains(row):
                    raise DomainError("body is not parallel to the direction space")

    def direction_contains(self, vec) -> bool:
        return self.direction.direction_contains(vec)

    @property
    def direction_rank(self) -> int:
        return self.direction.rank


def _subset_sums(bodies):
    """Minkowski sums of all nonempty subsets, keyed by bitmask (DP over prefixes)."""
    sums = {}
    for i, body in enumerate(bodies):
        bit = 1 << i
        sums[bit] = body
        for mask in list(sums):
            if mask & bit or mask == bit:
                continue
            sums[mask | bit] = minkowski_sum(sums[mask], body)
    return sums


def polarize(functional, bodies):
    """Value of the polarization of a homogeneous functional at the bodies.

    The functional must be homogeneous of degree len(bodies) and evaluate
    exactly on every Minkowski sum of a subset of the bodies.  The sums are
    formed in ambient coordinates; volume and integrate then measure each
    one in its own span coordinates.
    """
    n = len(bodies)
    if n == 0:
        raise DomainError("polarization needs at least one body")
    sums = _subset_sums(bodies)
    total = ZERO
    for mask in sorted(sums):
        value = functional(sums[mask])
        size = bin(mask).count("1")
        total += (value if (n - size) % 2 == 0 else -value)
    return total / factorial(n)


def mixed_volume(system: BodySystem):
    """Mixed volume of the bodies, normalized to the system's lattice.

    The number of bodies must equal dim(Pi).  A subset sum of dimension
    below dim(Pi) has Pi-relative volume 0.
    """
    m = system.direction_rank
    if len(system.bodies) != m:
        raise DomainError(f"mixed volume of dim-{m} system needs {m} bodies, "
                          f"got {len(system.bodies)}")
    if m == 0:
        return Q(1)  # volume of a point, degree-0 base case
    lattice = system.direction
    return polarize(lambda body: volume(body, lattice) if body.dim >= m else ZERO,
                    system.bodies)


def mixed_integral(poly: Polynomial, system: BodySystem):
    """Mixed integral of a homogeneous polynomial over the bodies.

    The functional D -> integral of poly over D (0 when dim D < dim(Pi)) is
    homogeneous of degree dim(Pi) + deg(poly); the body count must match.
    With poly constant 1 this coincides with the mixed volume.
    """
    if poly.num_vars != system.direction.ambient_dim:
        raise DomainError(f"polynomial in {poly.num_vars} variables over bodies in "
                          f"dimension {system.direction.ambient_dim}")
    if not poly.is_homogeneous():
        raise DomainError("mixed integral requires a homogeneous polynomial")
    m = system.direction_rank
    p = poly.degree()
    expected = m + p
    if len(system.bodies) != expected:
        raise DomainError(f"mixed integral of degree {m}+{p} needs {expected} bodies, "
                          f"got {len(system.bodies)}")
    if expected == 0:
        # zero bodies: degree-0 functional, the integral over a point
        return poly(system.direction.offset)
    lattice = system.direction
    return polarize(lambda body: integrate(poly, body, lattice) if body.dim >= m else ZERO,
                    system.bodies)
