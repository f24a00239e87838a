"""Affine lattices: offset + integer span of a basis, with exact membership.

Membership reads one fraction-free elimination per basis, cached: `bareiss`
of [B^T | I], B the basis rows, gives d times the reduced echelon form
M [B^T | I] = [[I, X], [0, Y]], d its last pivot, M = [[X], [Y]]
invertible.  So B^T c = v exactly when Y v = 0, and then c = X v: a row
with its pivot among the first s columns (s the rank) gives d c_p = row . v,
and each other row a consistency condition row . v = 0, all in ints for an
int v.  The same elimination checks that the basis is independent, so a
lattice built again from a basis it has seen takes no elimination, and nor
does the standard basis of Z^n: [I | I] is its own form, with d = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .errors import DomainError, check_length
from .linalg import bareiss, integer_kernel, nullspace, primitive, vsub
from .rationals import Q, exact_point, is_integral


@lru_cache(maxsize=1024)
def _elimination(basis, n):
    """(d, coordinate rows, condition rows) of `bareiss` of [B^T | I], the
    rows cut to their last n entries; None if the basis is dependent."""
    s = len(basis)
    if s == n and basis == tuple(tuple(int(i == j) for j in range(n)) for i in range(n)):
        return 1, basis, ()  # Z^n: [I | I] is its own `bareiss` form
    rows, pivots = bareiss([tuple(b[i] for b in basis) + tuple(int(i == j) for j in range(n))
                            for i in range(n)])
    if sum(p < s for p in pivots) != s:
        return None
    d = rows[-1][pivots[-1]] if pivots else 1
    return (d, tuple(row[s:] for row, p in zip(rows, pivots) if p < s),
            tuple(primitive(row[s:]) for row, p in zip(rows, pivots) if p >= s))


@dataclass(frozen=True)
class AffineLattice:
    """The affine lattice offset + Z b_1 + ... + Z b_s in Q^n.

    Basis vectors are integer and linearly independent; the offset may be
    rational, and n is its length.  The rank-0 lattice (a single point) is
    allowed.  Integral entries are stored as ints; a float is rejected.
    """

    offset: tuple
    basis: tuple  # tuple of integer tuples

    def __post_init__(self):
        offset = exact_point(self.offset, "lattice offset entries")
        basis = tuple(exact_point(b, "lattice basis entries") for b in self.basis)
        if any(type(x) is not int for b in basis for x in b):
            raise DomainError("lattice basis entries must be integers")
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "basis", basis)
        if any(len(b) != len(offset) for b in basis):
            raise DomainError("lattice offset/basis dimension mismatch")
        if _elimination(basis, len(offset)) is None:
            raise DomainError("lattice basis vectors must be linearly independent")

    @classmethod
    @lru_cache(maxsize=64)
    def standard(cls, n: int) -> "AffineLattice":
        """Z^n, one shared object per n: a lattice is immutable, and this
        skips the rank check of its basis on every later call."""
        unit = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return cls(offset=(0,) * n, basis=unit)

    @property
    def ambient_dim(self) -> int:
        return len(self.offset)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def _solve(self, vec):
        """c with basis^T c = vec, integral entries as ints, or None when vec
        is off the span: from the cached elimination of the basis."""
        d, solve_rows, conditions = _elimination(self.basis, self.ambient_dim)
        if any(sum(map(mul, row, vec)) for row in conditions):
            return None
        out = []
        for row in solve_rows:
            x = sum(map(mul, row, vec))
            if type(x) is int and x % d == 0:
                out.append(x // d)
            else:
                x = Q(x, d)
                out.append(x.numerator if x.denominator == 1 else x)
        return tuple(out)

    def coordinates(self, point):
        """Coordinates c with offset + basis^T c = point, or None: ints where
        integral, `Fraction`s elsewhere."""
        check_length(point, self.ambient_dim)
        return self._solve(vsub(point, self.offset))

    def contains(self, point) -> bool:
        coords = self.coordinates(point)
        return coords is not None and all(is_integral(c) for c in coords)

    def point_at(self, coords):
        """offset + basis^T coords, an int tuple when the offset and the
        coordinates are integral."""
        check_length(coords, self.rank)
        sums = list(self.offset)
        if not all(type(o) is int for o in sums):
            sums = [Q(o) for o in sums]
        for c, b in zip(coords, self.basis):
            for i, x in enumerate(b):
                if x:
                    sums[i] += c * x
        return tuple(sums)

    def direction_contains(self, vec) -> bool:
        """True iff vec lies in the rational span of the basis."""
        check_length(vec, self.ambient_dim)
        return self._solve(vec) is not None

    def direction_sublattice(self, span_rows):
        """Basis of {v in this lattice's direction lattice : v in span(span_rows)}.

        Returns integer ambient vectors.  Used to normalize volumes on the
        affine span of a lower-dimensional polytope.
        """
        if not self.basis or not span_rows:
            return []
        constraint_rows = [primitive(tuple(sum(map(mul, n, b)) for b in self.basis))
                           for n in nullspace(span_rows)]
        if not constraint_rows:  # span is everything
            return list(self.basis)
        out = []
        for coeffs in integer_kernel(constraint_rows):
            vec = [0] * self.ambient_dim
            for c, b in zip(coeffs, self.basis):
                for i, x in enumerate(b):
                    vec[i] += c * x
            out.append(tuple(vec))
        return out
