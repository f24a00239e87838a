"""Linear solving by `horoindex.linalg.rref`, the oracle that
`expanded_integral` solves each simplex edge with.

The library itself never solves a system: lattice membership reads a
cached elimination of the basis instead (`lattices._elimination`).
`test_linalg_properties` checks this solver against the `Fraction` kernel.
"""

from horoindex.linalg import rref
from horoindex.rationals import Q, ZERO


def solve(rows, rhs):
    """Solve A x = b exactly.  Returns a solution tuple or None.

    Free variables (if any) are set to zero, so the result is deterministic.
    """
    mat = [list(r) + [b] for r, b in zip(rows, rhs)]
    if not mat:
        return ()
    ncols = len(rows[0])
    reduced, pivots = rref(mat)
    sol = [ZERO] * ncols
    for row, p in zip(reduced, pivots):
        if p == ncols:  # 0 = nonzero: inconsistent
            return None
        sol[p] = Q(row[-1], row[p])
    return tuple(sol)
