"""Property tests: lattice-point enumeration and lattice-normalized measures
against the direct algorithms they replace.

The oracles work in ambient coordinates: `scan_lattice_points` maps every
bounding-box candidate to an ambient point and tests it against p, and
`solve_volume`/`expanded_integral` (in `expanded_integral.py`) express each
simplex edge in a basis of the span sublattice by solving a linear system,
the integral expanding the polynomial on each simplex in `Fraction`s.  The
library works in lattice and span coordinates, and integrates each
monomial by an integer Dirichlet moment at the vertices; both must give the
same answers.
"""

import itertools
from math import ceil, floor
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanded_integral import expanded_integral, solve_volume
from horoindex import (AffineLattice, DomainError, Polynomial, Q, hull, integrate,
                       lattice_points, volume)
from horoindex import polytopes

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
        ranges.append(range(ceil(min(vals)), floor(max(vals)) + 1))
    points = (lattice.point_at(combo) for combo in itertools.product(*ranges))
    return sorted(pt for pt in points if p.contains(pt))


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
def polynomials(draw, n, degree=2, terms=4):
    """A polynomial of degree at most `degree` in n variables, with up to
    `terms` small terms."""
    exps = [e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) <= degree]
    chosen = draw(st.lists(st.sampled_from(exps), min_size=1, max_size=terms, unique=True))
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
    assert integrate(poly, p, lattice) == expanded_integral(poly, p, lattice)


@PROPERTY
@given(st.data())
def test_integrate_matches_the_expansion_to_degree_four(data):
    """Mixed monomials of every degree up to 4 with rational coefficients,
    on polytopes of dimension 0-3 with rational vertices, on every lattice
    kind above."""
    lattice, p = data.draw(lattices_and_polytopes())
    poly = data.draw(polynomials(lattice.ambient_dim, degree=4, terms=6))
    assert integrate(poly, p, lattice) == expanded_integral(poly, p, lattice)


@PROPERTY
@given(st.data())
def test_cached_and_uncached_lattice_cells_give_equal_measures(data):
    lattice, p = data.draw(lattices_and_polytopes())
    poly = data.draw(polynomials(lattice.ambient_dim))
    cached = volume(p, lattice), integrate(poly, p, lattice)
    hits = polytopes._lattice_cell.cache_info().hits
    assert (volume(p, lattice), integrate(poly, p, lattice)) == cached
    assert polytopes._lattice_cell.cache_info().hits == hits + 2
    with patch.object(polytopes, "_lattice_cell", polytopes._lattice_cell.__wrapped__):
        assert (volume(p, lattice), integrate(poly, p, lattice)) == cached


def test_a_span_off_the_lattice_raises_on_every_call():
    # a diagonal segment, measured on the lattice of the first axis
    p, lattice = hull([(0, 0), (1, 1)]), AffineLattice((0, 0), ((1, 0),))
    messages = []
    for _ in range(2):
        with pytest.raises(DomainError, match="not contained in the lattice") as err:
            volume(p, lattice)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
