"""Root data for products of GL(n) factors and a torus.

Weight coordinates are the GL blocks concatenated in declaration order,
followed by the torus coordinates.  Dominance is the non-increasing
convention within each GL factor: l_1 >= l_2 >= ... >= l_n.  This module
checks it only in `ChamberFace.face_contains_coords`: the full chamber's
face coordinates are the weight coordinates, so `dim_irrep` checks a
weight there.

The dimension polynomial of an irreducible representation is

    F(l) = prod over factors prod_{i<j} (l_i - l_j + j - i) / (j - i),

a polynomial of degree (dim G - rank G)/2.  Chamber faces are given by
partitions of each factor's coordinates into consecutive blocks; weights on
the face are constant on each block.  Each face maps its weight columns to
the face coordinates they read once, in `ChamberFace.columns`; moving
between weights and face coordinates, dominance on the face, the Weyl
forms, the Gelfand-Tsetlin entries a face pins and the central translation
of supports all read that map.  On a face, a pair i < j inside one
block contributes (j - i)/(j - i) = 1, and a cross-block pair the integer
affine form c_I - c_J + (j - i) in the block coordinates c.  So F restricted
to a face is a product of integer forms over one integer divisor
(`dimension_forms`), which is how dimensions are evaluated, in ints; the
expanded polynomials (`restricted_weyl`) are built from the same forms, and
their top homogeneous component keeps only the cross-block pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .lattices import AffineLattice
from .polynomials import Polynomial, product_values
from .rationals import Q, exact_point, format_point, format_rat, is_integral


@dataclass(frozen=True)
class GroupDescriptor:
    gl_factors: tuple
    torus_rank: int = 0

    def __post_init__(self):
        factors = tuple(self.gl_factors)
        for n in factors + (self.torus_rank,):
            if type(n) is not int:
                raise DomainError(f"GL factor sizes and the torus rank must be ints, "
                                  f"not {n!r}")
        object.__setattr__(self, "gl_factors", factors)
        if any(n < 1 for n in factors) or self.torus_rank < 0:
            raise DomainError("GL factors need n >= 1 and torus rank >= 0")

    @property
    def rank(self) -> int:
        return sum(self.gl_factors) + self.torus_rank

    @property
    def dim(self) -> int:
        return sum(n * n for n in self.gl_factors) + self.torus_rank


def weyl_polynomial(group: GroupDescriptor) -> Polynomial:
    """The polynomial whose value at a dominant weight is dim V_lambda: F
    on the full chamber, whose face coordinates are the weight coordinates."""
    return restricted_weyl(ChamberFace.full_chamber(group))[0]


def dim_irrep(group: GroupDescriptor, weight) -> int:
    """dim V_lambda for a dominant integral weight, whose coordinates are the
    full chamber's face coordinates."""
    weight = tuple(Q(x) for x in weight)
    if len(weight) != group.rank:
        raise DomainError("weight length does not match group rank")
    if not all(is_integral(x) for x in weight):
        raise DomainError(f"weight {format_point(weight)} is not integral")
    chamber = ChamberFace.full_chamber(group)
    if not chamber.face_contains_coords(weight):
        raise DomainError(f"weight {format_point(weight)} is not dominant")
    weight = tuple(x.numerator for x in weight)
    forms, divisor = dimension_forms(chamber)
    value = next(product_values(forms, [weight]))
    dim, rem = divmod(value, divisor)
    if rem or dim <= 0:
        raise DomainError(f"dimension formula gave a non-positive or fractional "
                          f"value {format_rat(Q(value, divisor))} at {format_point(weight)}")
    return dim


@dataclass(frozen=True)
class ChamberFace:
    """A face of the dominant chamber: per factor, an ordered partition of
    the coordinates into consecutive blocks.  Weights on the face are
    constant on each block, with block values non-increasing.

    `columns` holds, per GL factor, the face coordinate that each weight
    column reads, blocks numbered across the factors in order; the torus
    coordinates follow the `num_blocks` block coordinates.  Every reader of
    the face's layout reads `columns`.  It, `num_blocks` and `dim`, the
    dimension of the face = block count + torus rank = rank of its weight
    lattice, are set once, at construction; they are not fields, so
    equality and hashing read only group and blocks."""

    group: GroupDescriptor
    blocks: tuple  # one tuple of block sizes per GL factor

    def __post_init__(self):
        blocks = tuple(tuple(bs) for bs in self.blocks)
        for b in itertools.chain.from_iterable(blocks):
            if type(b) is not int:
                raise DomainError(f"block sizes must be ints, not {b!r}")
        object.__setattr__(self, "blocks", blocks)
        if len(blocks) != len(self.group.gl_factors):
            raise DomainError("one block partition per GL factor required")
        for sizes, n in zip(blocks, self.group.gl_factors):
            if any(s < 1 for s in sizes) or sum(sizes) != n:
                raise DomainError(f"block sizes {sizes} do not partition {n} coordinates")
        block = itertools.count()  # blocks are numbered across the factors in order
        object.__setattr__(self, "columns", tuple(
            tuple(b for size in sizes for b in [next(block)] * size) for sizes in blocks))
        object.__setattr__(self, "num_blocks", next(block))
        object.__setattr__(self, "dim", self.num_blocks + self.group.torus_rank)

    def face_coordinates(self, weight):
        """Block coordinates of a block-constant weight, each read off the
        block's first column; raises otherwise."""
        weight = exact_point(weight, "weights")
        if len(weight) != self.group.rank:
            raise DomainError("weight length does not match group rank")
        out, pos = [], 0
        for cols in self.columns:
            for c in cols:
                if c == len(out):
                    out.append(weight[pos])
                elif weight[pos] != out[c]:
                    raise DomainError(f"weight {format_point(weight)} is not constant "
                                      f"on the face blocks")
                pos += 1
        return tuple(out) + weight[pos:]

    def expand(self, face_coords):
        """Full weight from block coordinates, whose entries it copies."""
        if len(face_coords) != self.dim:
            raise DomainError("face coordinate length mismatch")
        return (tuple(face_coords[c] for cols in self.columns for c in cols)
                + tuple(face_coords[self.num_blocks:]))

    def face_contains_coords(self, face_coords) -> bool:
        return all(face_coords[b] >= face_coords[b + 1]
                   for cols in self.columns for b in range(cols[0], cols[-1]))

    def full_chamber(group: GroupDescriptor) -> "ChamberFace":
        return ChamberFace(group, tuple(tuple([1] * n) for n in group.gl_factors))

    full_chamber = staticmethod(full_chamber)


@lru_cache(maxsize=None)
def dimension_forms(face: ChamberFace):
    """(forms, divisor): F_sigma(c) = prod(a.c + gap for a, gap in forms) / divisor.

    One integer affine form (a, gap) in face coordinates per positive root
    e_i - e_j (i < j in one GL factor) whose coordinates lie in different
    blocks I and J: a = e_I - e_J and gap = j - i.  divisor is the product
    of the gaps.  The roots inside one block contribute 1 and are left out.
    """
    forms, divisor = [], 1
    for cols in face.columns:
        for i, j in itertools.combinations(range(len(cols)), 2):
            if cols[i] != cols[j]:
                a = [0] * face.dim
                a[cols[i]], a[cols[j]] = 1, -1
                forms.append((tuple(a), j - i))
                divisor *= j - i
    return tuple(forms), divisor


@lru_cache(maxsize=None)
def restricted_weyl(face: ChamberFace):
    """(F_sigma, phi_sigma): the dimension polynomial in face coordinates and
    its top homogeneous component, expanded from `dimension_forms`; phi_sigma
    is the product of the forms' linear parts.  deg(phi_sigma) counts the
    positive roots crossing distinct blocks, i.e. dim G/P."""
    forms, divisor = dimension_forms(face)
    f_sigma = phi = Polynomial.constant(Q(1, divisor), face.dim)
    for a, gap in forms:
        f_sigma = f_sigma * Polynomial.linear(a, gap)
        phi = phi * Polynomial.linear(a)
    return f_sigma, phi


def cross_pair_count(face: ChamberFace) -> int:
    """Number of positive roots not vanishing on the face (= deg phi_sigma)."""
    return len(dimension_forms(face)[0])


def space_dims(face: ChamberFace, lambda_h: AffineLattice):
    """(p, m): dimensions of G/P' and of G/H for Lambda(H) = lambda_h.

    lambda_h lives in face coordinates and must be a sublattice of the face's
    weight lattice.
    """
    if lambda_h.ambient_dim != face.dim:
        raise DomainError("Lambda(H) must live in the face's coordinate space")
    deg_phi = cross_pair_count(face)
    return deg_phi + face.dim, deg_phi + lambda_h.rank
