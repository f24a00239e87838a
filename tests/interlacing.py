"""The interlacing inequalities of a Gelfand-Tsetlin polytope: the reference
that the library's vertex construction and its interlacing rows are
checked against.

The library builds GT(lambda) from its vertices, and a lift from its
vertices and `gelfand_tsetlin.interlacing_rows`, the same relations over
face coordinates and free pattern entries.  Here they are written out row
by row for one weight, with the weight row constant, so a test can check
that every constructed vertex satisfies them and that enough of them are
tight there, and that the library's rows agree on expanded patterns.
"""

from horoindex import Q, pattern_positions
from horoindex.gelfand_tsetlin import _check_weight


def gt_inequalities(weight):
    """Interlacing system A x <= b over the pattern coordinates.

    Row n is the constant weight; every other entry is a variable.
    """
    weight = _check_weight(weight)
    n = len(weight)
    pos = pattern_positions(n)
    index = {rc: i for i, rc in enumerate(pos)}
    dim = len(pos)
    rows, rhs = [], []

    def add(coeffs, bound):
        rows.append(tuple(coeffs))
        rhs.append(bound)

    for r in range(n - 1, 0, -1):
        for c in range(1, r + 1):
            i = index[(r, c)]
            # upper neighbour x[r+1][c] >= x[r][c]
            coeffs = [0] * dim
            coeffs[i] = 1
            if r + 1 == n:
                add(coeffs, weight[c - 1])
            else:
                coeffs[index[(r + 1, c)]] = -1
                add(coeffs, Q(0))
            # lower neighbour x[r][c] >= x[r+1][c+1]
            coeffs = [0] * dim
            coeffs[i] = -1
            if r + 1 == n:
                add(coeffs, -weight[c])
            else:
                coeffs[index[(r + 1, c + 1)]] = 1
                add(coeffs, Q(0))
    return rows, rhs


def contains_pattern(weight, pattern) -> bool:
    """True iff the pattern satisfies every interlacing inequality of weight."""
    rows, rhs = gt_inequalities(weight)
    pattern = tuple(Q(x) for x in pattern)
    return all(sum(a * x for a, x in zip(row, pattern)) <= b
               for row, b in zip(rows, rhs))
