"""Root data for products of GL(n) factors and a torus.

Weight coordinates are the GL blocks concatenated in declaration order,
followed by the torus coordinates.  Dominance is the non-increasing
convention within each GL factor: l_1 >= l_2 >= ... >= l_n.

The dimension polynomial of an irreducible representation is

    F(l) = prod over factors prod_{i<j} (l_i - l_j + j - i) / (j - i),

a polynomial of degree (dim G - rank G)/2.  Chamber faces are given by
partitions of each factor's coordinates into consecutive blocks; weights on
the face are constant on each block.  F restricted to a face keeps only the
cross-block pairs in its top homogeneous component.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .lattices import AffineLattice
from .polynomials import Polynomial
from .rationals import Q, is_integral


@dataclass(frozen=True)
class GroupDescriptor:
    gl_factors: tuple
    torus_rank: int = 0

    def __post_init__(self):
        factors = tuple(int(n) for n in self.gl_factors)
        object.__setattr__(self, "gl_factors", factors)
        if any(n < 1 for n in factors) or self.torus_rank < 0:
            raise DomainError("GL factors need n >= 1 and torus rank >= 0")

    @property
    def rank(self) -> int:
        return sum(self.gl_factors) + self.torus_rank

    @property
    def dim(self) -> int:
        return sum(n * n for n in self.gl_factors) + self.torus_rank

    @property
    def num_positive_roots(self) -> int:
        return sum(n * (n - 1) // 2 for n in self.gl_factors)

    def factor_slices(self):
        """(start, stop) coordinate ranges, one per GL factor."""
        out, pos = [], 0
        for n in self.gl_factors:
            out.append((pos, pos + n))
            pos += n
        return out

    def is_dominant(self, weight) -> bool:
        weight = tuple(weight)
        if len(weight) != self.rank:
            raise DomainError("weight length does not match group rank")
        for start, stop in self.factor_slices():
            block = weight[start:stop]
            if any(block[i] < block[i + 1] for i in range(len(block) - 1)):
                return False
        return True


def weyl_polynomial(group: GroupDescriptor) -> Polynomial:
    """The polynomial whose value at a dominant weight is dim V_lambda."""
    r = group.rank
    result = Polynomial.constant(1, r)
    for start, stop in group.factor_slices():
        for i in range(start, stop):
            for j in range(i + 1, stop):
                coeffs = [0] * r
                coeffs[i], coeffs[j] = 1, -1
                gap = j - i
                result = result * Polynomial.linear(coeffs, gap) * Q(1, gap)
    return result


def dim_irrep(group: GroupDescriptor, weight) -> int:
    weight = tuple(int(x) for x in weight)
    if not group.is_dominant(weight):
        raise DomainError(f"weight {weight} is not dominant")
    value = weyl_polynomial(group)(weight)
    if not is_integral(value) or value <= 0:
        raise DomainError(f"dimension formula gave a non-positive or fractional "
                          f"value {value} at {weight}")
    return int(value.numerator)


@dataclass(frozen=True)
class ChamberFace:
    """A face of the dominant chamber: per factor, an ordered partition of
    the coordinates into consecutive blocks.  Weights on the face are
    constant on each block, with block values non-increasing."""

    group: GroupDescriptor
    blocks: tuple  # one tuple of block sizes per GL factor

    def __post_init__(self):
        blocks = tuple(tuple(int(b) for b in bs) for bs in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if len(blocks) != len(self.group.gl_factors):
            raise DomainError("one block partition per GL factor required")
        for sizes, n in zip(blocks, self.group.gl_factors):
            if any(s < 1 for s in sizes) or sum(sizes) != n:
                raise DomainError(f"block sizes {sizes} do not partition {n} coordinates")

    @property
    def num_blocks(self) -> int:
        return sum(len(bs) for bs in self.blocks)

    @property
    def dim(self) -> int:
        """Dimension of the face = block count + torus rank = rank of its weight lattice."""
        return self.num_blocks + self.group.torus_rank

    def block_of_column(self, factor: int, col: int) -> int:
        """Block index (within the factor) of coordinate position col (0-based)."""
        acc = 0
        for b, size in enumerate(self.blocks[factor]):
            acc += size
            if col < acc:
                return b
        raise DomainError("column out of range")

    def embedding_matrix(self):
        """rank x dim matrix E with full_weight = E @ face_coordinates."""
        r, s = self.group.rank, self.dim
        mat = [[0] * s for _ in range(r)]
        col = 0
        row = 0
        for sizes in self.blocks:
            for size in sizes:
                for _ in range(size):
                    mat[row][col] = 1
                    row += 1
                col += 1
        for _ in range(self.group.torus_rank):
            mat[row][col] = 1
            row += 1
            col += 1
        return mat

    def face_coordinates(self, weight):
        """Block coordinates of a block-constant weight; raises otherwise."""
        weight = tuple(Q(x) for x in weight)
        if len(weight) != self.group.rank:
            raise DomainError("weight length does not match group rank")
        out = []
        pos = 0
        for sizes in self.blocks:
            for size in sizes:
                vals = weight[pos:pos + size]
                if any(v != vals[0] for v in vals):
                    raise DomainError(f"weight {weight} is not constant on the face blocks")
                out.append(vals[0])
                pos += size
        out.extend(weight[pos:])
        return tuple(out)

    def expand(self, face_coords):
        """Full weight from block coordinates."""
        face_coords = tuple(Q(x) for x in face_coords)
        if len(face_coords) != self.dim:
            raise DomainError("face coordinate length mismatch")
        out = []
        i = 0
        for sizes in self.blocks:
            for size in sizes:
                out.extend([face_coords[i]] * size)
                i += 1
        out.extend(face_coords[i:])
        return tuple(out)

    def contains(self, weight) -> bool:
        """weight lies on the (closed) face: block-constant and dominant."""
        try:
            coords = self.face_coordinates(weight)
        except DomainError:
            return False
        return self.face_contains_coords(coords)

    def face_contains_coords(self, face_coords) -> bool:
        i = 0
        for sizes in self.blocks:
            vals = face_coords[i:i + len(sizes)]
            if any(vals[j] < vals[j + 1] for j in range(len(vals) - 1)):
                return False
            i += len(sizes)
        return True

    def relative_interior_contains(self, weight) -> bool:
        try:
            coords = self.face_coordinates(weight)
        except DomainError:
            return False
        i = 0
        for sizes in self.blocks:
            vals = coords[i:i + len(sizes)]
            if any(vals[j] <= vals[j + 1] for j in range(len(vals) - 1)):
                return False
            i += len(sizes)
        return True

    def full_chamber(group: GroupDescriptor) -> "ChamberFace":
        return ChamberFace(group, tuple(tuple([1] * n) for n in group.gl_factors))

    full_chamber = staticmethod(full_chamber)


@lru_cache(maxsize=None)
def restricted_weyl(face: ChamberFace):
    """(F_sigma, phi_sigma): the dimension polynomial in face coordinates and
    its top homogeneous component.  deg(phi_sigma) counts the positive roots
    crossing distinct blocks, i.e. dim G/P."""
    f = weyl_polynomial(face.group)
    matrix = face.embedding_matrix()
    f_sigma = f.compose_affine(matrix, [0] * face.group.rank)
    return f_sigma, f_sigma.top_component()


def cross_pair_count(face: ChamberFace) -> int:
    """Number of positive roots not vanishing on the face (= deg phi_sigma)."""
    total = 0
    for factor, n in enumerate(face.group.gl_factors):
        for i, j in itertools.combinations(range(n), 2):
            if face.block_of_column(factor, i) != face.block_of_column(factor, j):
                total += 1
    return total


def space_dims(face: ChamberFace, lambda_h: AffineLattice):
    """(p, m): dimensions of G/P' and of G/H for Lambda(H) = lambda_h.

    lambda_h lives in face coordinates and must be a sublattice of the face's
    weight lattice.
    """
    if lambda_h.ambient_dim != face.dim:
        raise DomainError("Lambda(H) must live in the face's coordinate space")
    deg_phi = cross_pair_count(face)
    return deg_phi + face.dim, deg_phi + lambda_h.rank
