"""Affine lattices: offset + integer span of a basis, with exact membership."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError
from .linalg import clear_denominators, integer_kernel, nullspace, rank, solve, vsub
from .rationals import Q, ZERO, is_integral


@dataclass(frozen=True)
class AffineLattice:
    """The affine lattice offset + Z b_1 + ... + Z b_s in Q^n.

    Basis vectors are integer and linearly independent; the offset may be
    rational.  The rank-0 lattice (a single point) is allowed.
    """

    offset: tuple
    basis: tuple  # tuple of integer tuples
    ambient_dim: int = field(default=-1)

    def __post_init__(self):
        offset = tuple(Q(x) for x in self.offset)
        if not all(is_integral(Q(x)) for b in self.basis for x in b):
            raise DomainError("lattice basis entries must be integers")
        basis = tuple(tuple(int(x) for x in b) for b in self.basis)
        dim = self.ambient_dim if self.ambient_dim >= 0 else len(offset)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "ambient_dim", dim)
        if any(len(b) != dim for b in basis) or len(offset) != dim:
            raise DomainError("lattice offset/basis dimension mismatch")
        if basis and rank(basis) != len(basis):
            raise DomainError("lattice basis vectors must be linearly independent")

    @classmethod
    def standard(cls, n: int) -> "AffineLattice":
        unit = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return cls(offset=(0,) * n, basis=unit, ambient_dim=n)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def coordinates(self, point):
        """Rational coordinates c with offset + basis^T c = point, or None."""
        diff = vsub(tuple(Q(x) for x in point), self.offset)
        if not self.basis:
            return () if all(x == 0 for x in diff) else None
        cols = [tuple(b[i] for b in self.basis) for i in range(self.ambient_dim)]
        return solve(cols, diff)

    def contains(self, point) -> bool:
        coords = self.coordinates(point)
        return coords is not None and all(is_integral(c) for c in coords)

    def point_at(self, coords):
        pt = list(self.offset)
        for c, b in zip(coords, self.basis):
            for i, x in enumerate(b):
                pt[i] += Q(c) * x
        return tuple(pt)

    def direction_contains(self, vec) -> bool:
        """True iff vec lies in the rational span of the basis."""
        if all(Q(x) == 0 for x in vec):
            return True
        if not self.basis:
            return False
        cols = [tuple(b[i] for b in self.basis) for i in range(self.ambient_dim)]
        return solve(cols, tuple(Q(x) for x in vec)) is not None

    def direction_sublattice(self, span_rows):
        """Basis of {v in this lattice's direction lattice : v in span(span_rows)}.

        Returns integer ambient vectors.  Used to normalize volumes on the
        affine span of a lower-dimensional polytope.
        """
        if not self.basis:
            return []
        if not span_rows:
            return []
        normals = nullspace(span_rows)
        if not normals:  # span is everything
            constraint_rows = []
        else:
            constraint_rows = [
                clear_denominators(tuple(sum((Q(nv) * Q(bv) for nv, bv in zip(n, b)), ZERO)
                                         for b in self.basis))
                for n in normals
            ]
        if not constraint_rows:
            coeff_sets = [tuple(1 if i == j else 0 for j in range(len(self.basis)))
                          for i in range(len(self.basis))]
        else:
            coeff_sets = integer_kernel(constraint_rows)
        out = []
        for coeffs in coeff_sets:
            vec = [0] * self.ambient_dim
            for c, b in zip(coeffs, self.basis):
                for i, x in enumerate(b):
                    vec[i] += c * x
            out.append(tuple(vec))
        return out
