"""The expansion integrator: the reference the library's integer
Dirichlet-moment kernel (`polynomials.integrate`) is compared against.

Each simplex of `triangulation(p)` is pulled back along the ambient map
x = v0 + E t, the columns of E being its edges, by expanding the
polynomial with `Polynomial.compose_affine` in `Fraction`s; each monomial
t^a of the result integrates over the standard simplex {t >= 0, sum t <= 1}
to prod a_i! / (m + |a|)!.  The lattice normalization solves each edge in a
basis of the span sublattice by a linear system, where the library takes
integer determinants at the span pivots.
"""

from math import factorial

from horoindex import Q
from bareiss_solve import solve
from horoindex.linalg import det, vsub
from horoindex.polytopes import triangulation


def simplex_monomial_integral(exponents):
    """Integral of prod t_i^{a_i} over the standard simplex {t >= 0, sum t <= 1}."""
    m = len(exponents)
    num = 1
    for a in exponents:
        num *= factorial(a)
    return Q(num, factorial(m + sum(exponents)))


def solved_jacobians(p, lattice):
    """(simplex, edges, |det|) per simplex of triangulation(p), the
    determinant taken of the edges solved in a basis of the span sublattice."""
    sub = lattice.direction_sublattice(list(p.span_basis))
    cols = [tuple(m[i] for m in sub) for i in range(p.ambient_dim)]
    for simplex in triangulation(p):
        edges = [vsub(v, simplex[0]) for v in simplex[1:]]
        yield simplex, edges, abs(det([solve(cols, e) for e in edges]))


def solve_volume(p, lattice):
    if p.dim == 0:
        return Q(1)
    total = sum((jac for _, _, jac in solved_jacobians(p, lattice)), Q(0))
    return total / factorial(p.dim)


def expanded_integral(poly, p, lattice):
    """Integral of poly over p by expanding it on each simplex."""
    if p.dim == 0:
        return poly(p.base)
    total = Q(0)
    for simplex, edges, jac in solved_jacobians(p, lattice):
        matrix = [tuple(e[i] for e in edges) for i in range(p.ambient_dim)]
        g = poly.compose_affine(matrix, simplex[0])
        total += jac * sum((c * simplex_monomial_integral(e) for e, c in g.terms.items()),
                           Q(0))
    return total
