"""Polarization of homogeneous polytope functionals.

Mixed volumes and mixed integrals are obtained by subset inclusion-exclusion
over Minkowski sums: for a functional P homogeneous of degree N,

    B(D_1, ..., D_N) = (1/N!) * sum over nonempty S of (-1)^(N-|S|) P(sum_S D_i).

Empty subsets contribute nothing (a homogeneous functional of positive
degree vanishes at a point).  All bodies must be parallel to the system's
direction space Pi; a body (or subset sum) of dimension below dim(Pi) has
Pi-relative volume zero.

`polarize` is the library's one inclusion-exclusion loop.  Its measure
returns a tuple, so several functionals share one pass, and it is handed the
summands with a thunk for their sum, so a measure that knows its values (the
memo in `spaces`) forms no sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .errors import DomainError
from .lattices import AffineLattice
from .linalg import common_denominator
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
                if not self.direction.direction_contains(row):
                    raise DomainError("body is not parallel to the direction space")


def polarize(measure, bodies):
    """Values at the bodies of the polarizations of a tuple of functionals,
    each homogeneous of degree len(bodies), in one inclusion-exclusion pass.

    measure(summands, total) is called once per nonempty subset and returns
    the tuple of the functionals' values at the subset's Minkowski sum;
    total() returns that sum, formed lazily in ambient coordinates from a
    prefix table of this call, at most once per subset.
    """
    n = len(bodies)
    if n == 0:
        raise DomainError("polarization needs at least one body")
    sums = {1 << i: body for i, body in enumerate(bodies)}

    def total_of(mask):
        if mask not in sums:
            top = 1 << (mask.bit_length() - 1)
            sums[mask] = minkowski_sum(total_of(mask ^ top), sums[top])
        return sums[mask]

    signs, rows = [], []
    for mask in range(1, 1 << n):
        summands = [body for i, body in enumerate(bodies) if mask >> i & 1]
        signs.append(-1 if (n - len(summands)) % 2 else 1)
        rows.append(measure(summands, lambda: total_of(mask)))
    return tuple(_signed_sum(signs, values, factorial(n)) for values in zip(*rows))


def _signed_sum(signs, values, divisor):
    """sum(sign * value) / divisor, summed in ints over the values' common
    denominator, so that it makes one Fraction."""
    den = common_denominator(values)
    return Q(sum(sign * v.numerator * (den // v.denominator) for sign, v in zip(signs, values)),
             den * divisor)


def mixed_volume(system: BodySystem):
    """Mixed volume of the bodies, normalized to the system's lattice.

    The number of bodies must equal dim(Pi).  A subset sum of dimension
    below dim(Pi) has Pi-relative volume 0.
    """
    m = system.direction.rank
    if len(system.bodies) != m:
        raise DomainError(f"mixed volume of dim-{m} system needs {m} bodies, "
                          f"got {len(system.bodies)}")
    if m == 0:
        return Q(1)  # volume of a point, degree-0 base case

    def measure(summands, total):
        body = total()
        return (volume(body, system.direction) if body.dim >= m else ZERO,)

    return polarize(measure, system.bodies)[0]


def mixed_integral(poly: Polynomial, system: BodySystem):
    """Mixed integral of a nonzero homogeneous polynomial over the bodies.

    The functional D -> integral of poly over D (0 when dim D < dim(Pi)) is
    homogeneous of degree dim(Pi) + deg(poly); the body count must match.
    With poly constant 1 this coincides with the mixed volume.
    """
    if poly.num_vars != system.direction.ambient_dim:
        raise DomainError(f"polynomial in {poly.num_vars} variables over bodies in "
                          f"dimension {system.direction.ambient_dim}")
    if poly.is_zero():
        raise DomainError("mixed integral of the zero polynomial: it has no degree, "
                          "so no body count fits")
    if not poly.is_homogeneous():
        raise DomainError("mixed integral requires a homogeneous polynomial")
    m = system.direction.rank
    p = poly.degree()
    expected = m + p
    if len(system.bodies) != expected:
        raise DomainError(f"mixed integral of degree {m}+{p} needs {expected} bodies, "
                          f"got {len(system.bodies)}")
    if expected == 0:
        # zero bodies: degree-0 functional, the integral over a point
        return poly(system.direction.offset)

    def measure(summands, total):
        body = total()
        return (integrate(poly, body, system.direction) if body.dim >= m else ZERO,)

    return polarize(measure, system.bodies)[0]
