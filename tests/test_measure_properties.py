"""Property tests: lattice-point enumeration and lattice-normalized measures
against the direct algorithms they replace.

The oracles below work in ambient coordinates: `scan_lattice_points` maps
every bounding-box candidate to an ambient point and tests it against p,
and `solve_volume`/`solve_integral` express each simplex edge in a basis of
the span sublattice by solving a linear system.  The library works in
lattice and span coordinates instead; both must give the same answers.
"""

import itertools
from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from horoindex import AffineLattice, Polynomial, Q, hull, integrate, lattice_points, volume
from horoindex.linalg import det, solve, vsub
from horoindex.polynomials import _simplex_monomial_integral
from horoindex.polytopes import _span_sublattice, triangulation
from horoindex.rationals import rat_ceil, rat_floor

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)

# index-2 sublattices of Z^n, deliberately not axis-aligned where n >= 2
INDEX_TWO = {
    1: ((2,),),
    2: ((1, 1), (1, -1)),
    3: ((1, 1, 0), (1, -1, 0), (0, 1, 1)),
}


def scan_lattice_points(p, lattice):
    coords = [lattice.coordinates(v) for v in p.vertices]
    ranges = []
    for j in range(lattice.rank):
        vals = [c[j] for c in coords]
        ranges.append(range(rat_ceil(min(vals)), rat_floor(max(vals)) + 1))
    points = (lattice.point_at(combo) for combo in itertools.product(*ranges))
    return sorted(pt for pt in points if p.contains(pt))


def _solved_jacobians(p, lattice):
    sub = _span_sublattice(p, lattice)
    cols = [tuple(m[i] for m in sub) for i in range(p.ambient_dim)]
    for simplex in triangulation(p):
        edges = [vsub(v, simplex[0]) for v in simplex[1:]]
        yield simplex, edges, abs(det([solve(cols, e) for e in edges]))


def solve_volume(p, lattice):
    if p.dim == 0:
        return Q(1)
    total = sum((jac for _, _, jac in _solved_jacobians(p, lattice)), Q(0))
    return total / factorial(p.dim)


def solve_integral(poly, p, lattice):
    if p.dim == 0:
        return poly(p.base)
    total = Q(0)
    for simplex, edges, jac in _solved_jacobians(p, lattice):
        matrix = [tuple(e[i] for e in edges) for i in range(p.ambient_dim)]
        g = poly.compose_affine(matrix, simplex[0])
        total += jac * sum((c * _simplex_monomial_integral(e) for e, c in g.terms.items()),
                           Q(0))
    return total


small_rational = st.builds(Q, st.integers(-3, 3), st.sampled_from([1, 1, 2]))


@st.composite
def lattices(draw):
    """A lattice in dimension 1-3: standard, index 2, a coset of either with
    a rational offset, or a single point (rank 0)."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["standard", "index-2", "coset", "rank-0"]))
    offset = (0,) * n
    if kind == "coset":
        offset = tuple(draw(small_rational) + Q(1, 3) for _ in range(n))
    if kind == "rank-0":
        offset = tuple(draw(small_rational) for _ in range(n))
        return AffineLattice(offset, ())
    if kind == "index-2" or (kind == "coset" and draw(st.booleans())):
        return AffineLattice(offset, INDEX_TWO[n])
    return AffineLattice(offset, AffineLattice.standard(n).basis)


@st.composite
def polytopes_in(draw, lattice):
    """A polytope of dimension m <= rank in the affine span of the lattice.

    In lattice coordinates it is the hull of a frame origin, origin + s_i d_i
    (the rows d_i of D = [I | B], s_i nonzero) and up to three more points
    origin + t D."""
    r = lattice.rank
    m = draw(st.integers(0, r))
    origin = tuple(draw(small_rational) for _ in range(r))
    tail = [tuple(draw(st.integers(-2, 2)) for _ in range(r - m)) for _ in range(m)]
    directions = [tuple(int(i == j) for j in range(m)) + b for i, b in enumerate(tail)]
    nonzero = small_rational.filter(bool)
    ts = [[draw(nonzero) if i == j else 0 for j in range(m)] for i in range(m)]
    ts += [[draw(small_rational) for _ in range(m)] for _ in range(draw(st.integers(0, 3)))]
    points = [lattice.point_at(origin)]
    for t in ts:
        c = tuple(o + sum((ti * d[j] for ti, d in zip(t, directions)), Q(0))
                  for j, o in enumerate(origin))
        points.append(lattice.point_at(c))
    p = hull(points)
    assert p.dim == m
    return p


@st.composite
def lattices_and_polytopes(draw):
    lattice = draw(lattices())
    return lattice, draw(polytopes_in(lattice))


@st.composite
def polynomials(draw, n):
    """A polynomial of degree at most 2 in n variables, with small terms."""
    exps = [e for e in itertools.product(range(3), repeat=n) if sum(e) <= 2]
    chosen = draw(st.lists(st.sampled_from(exps), min_size=1, max_size=4, unique=True))
    return Polynomial({e: draw(small_rational) for e in chosen}, n)


@PROPERTY
@given(lattices_and_polytopes())
def test_lattice_points_match_the_ambient_scan(case):
    lattice, p = case
    assert lattice_points(p, lattice) == scan_lattice_points(p, lattice)


@PROPERTY
@given(lattices_and_polytopes())
def test_volume_matches_the_per_edge_solve(case):
    lattice, p = case
    assert volume(p, lattice) == solve_volume(p, lattice)


@PROPERTY
@given(st.data())
def test_integrate_matches_the_per_edge_solve(data):
    lattice, p = data.draw(lattices_and_polytopes())
    poly = data.draw(polynomials(lattice.ambient_dim))
    assert integrate(poly, p, lattice) == solve_integral(poly, p, lattice)
