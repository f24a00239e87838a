"""The layout of a chamber face found by walking its block sizes: the
reference that `ChamberFace.columns` and its readers are checked against.

A face stores, per GL factor, the face coordinate that each weight column
reads (`ChamberFace.columns`), and every layout question in the library
reads that map.  Here the same questions are answered from
`ChamberFace.blocks` alone, block by block, without `columns`: which block
a column lies in, a weight's face coordinates and back, dominance on the
face, the pattern entries the face leaves free, the interlacing rows over
face coordinates and free entries, and the central shift of a support.
"""

import itertools

from horoindex import DomainError, pattern_positions
from horoindex.rationals import exact_point, format_point


def block_of_column(face, factor, col):
    """Block index (within the factor) of coordinate position col (0-based)."""
    acc = 0
    for b, size in enumerate(face.blocks[factor]):
        acc += size
        if col < acc:
            return b
    raise DomainError("column out of range")


def face_coordinates(face, weight):
    """Block coordinates of a block-constant weight; raises otherwise."""
    weight = exact_point(weight, "weights")
    if len(weight) != face.group.rank:
        raise DomainError("weight length does not match group rank")
    out = []
    pos = 0
    for sizes in face.blocks:
        for size in sizes:
            vals = weight[pos:pos + size]
            if any(v != vals[0] for v in vals):
                raise DomainError(f"weight {format_point(weight)} is not constant "
                                  f"on the face blocks")
            out.append(vals[0])
            pos += size
    out.extend(weight[pos:])
    return tuple(out)


def expand(face, face_coords):
    """Full weight from block coordinates."""
    if len(face_coords) != face.dim:
        raise DomainError("face coordinate length mismatch")
    out = []
    i = 0
    for sizes in face.blocks:
        for size in sizes:
            out.extend([face_coords[i]] * size)
            i += 1
    out.extend(face_coords[i:])
    return tuple(out)


def face_contains_coords(face, face_coords):
    """True iff the block values are non-increasing within every factor."""
    i = 0
    for sizes in face.blocks:
        vals = face_coords[i:i + len(sizes)]
        if any(vals[j] < vals[j + 1] for j in range(len(vals) - 1)):
            return False
        i += len(sizes)
    return True


def free_entries(face):
    """Per GL factor, the positions into pattern_positions(n) of the
    entries (r, c) whose columns c and c+n-r lie in different blocks."""
    return tuple(tuple(i for i, (r, c) in enumerate(pattern_positions(n))
                       if block_of_column(face, factor, c - 1)
                       != block_of_column(face, factor, c + n - r - 1))
                 for factor, n in enumerate(face.group.gl_factors))


def interlacing_rows(face):
    """The interlacing relations x[r+1][c] >= x[r][c] >= x[r+1][c+1] as
    sorted int half-spaces (a, 0), a.(c, x) <= 0, each entry reading its
    block's face coordinate or its own free coordinate."""
    free = free_entries(face)
    width = face.dim + sum(map(len, free))
    rows, first, column = set(), 0, itertools.count(face.dim)  # first: the factor's first block
    for factor, n in enumerate(face.group.gl_factors):
        entry = {(n, c): first + block_of_column(face, factor, c - 1) for c in range(1, n + 1)}
        for i, (r, c) in enumerate(pattern_positions(n)):
            entry[r, c] = next(column) if i in free[factor] else entry[n, c]
        for r, c in pattern_positions(n):
            for upper, lower in (((r + 1, c), (r, c)), ((r, c), (r + 1, c + 1))):
                if entry[upper] != entry[lower]:
                    a = [0] * width
                    a[entry[lower]], a[entry[upper]] = 1, -1
                    rows.add(tuple(a))
        first += len(face.blocks[factor])
    return tuple((a, 0) for a in sorted(rows))


def central_shift(face, weight):
    """The central part of a weight in face coordinates: per GL factor its
    last block coordinate on every block of the factor, then its torus
    coordinates."""
    reference, end = [], 0
    for sizes in face.blocks:
        end += len(sizes)
        reference += [end - 1] * len(sizes)
    reference += range(end, face.dim)
    return tuple(weight[j] for j in reference)
