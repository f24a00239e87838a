"""Intersection indices on horospherical homogeneous spaces.

A space is the pair (chamber face, sublattice Lambda(H)) together with a
mode: `quotient_by_commutator` works with invariant subspaces of regular
functions on G/P' (supports are arbitrary finite sets of dominant weights on
the face, measure normalized to the face's weight lattice), while `general`
works with invariant linear systems on G/H (supports lie in a coset of
Lambda(H), measure normalized to Lambda(H)).

The index of a system of supports is computed by three independent routes:

* mixed integral of the top Weyl component over the moment polytopes,
  taken in ints: the component is the product of the linear parts of the
  face's `dimension_forms` over their divisor, never expanded, and its
  integral over each simplex of a subset sum is one integer Dirichlet
  moment of those forms at the simplex's scaled vertices, which makes one
  Fraction per subset sum (`polynomials.integrate`),
* mixed volume of the Gelfand-Tsetlin lifts of the moment polytopes, taken
  as the polarization of D -> vol(lift(D)) over the moment polytopes,
* (on diagonals, quotient mode) the leading coefficient of the Hilbert
  function k -> sum of irreducible dimensions over the dilated polytope,
  taken in ints: a dimension is a product of integer Weyl forms over one
  divisor, summed over each slice of lattice points from deg + 1 values.

Exact agreement of the routes is the library's own strongest self-check and
is enforced by `index_report`.  The polytope routes are one measure,
`_routes(space)`: D -> (integral of the top Weyl term over D, volume of
lift(D)), polarized in one pass over the moment polytopes moved along the
center of G: each GL factor's block coordinates less the first vertex's
last block coordinate, and its torus coordinates less the first vertex's.
Both measures are unchanged by such a move, as the top Weyl term reads only
differences of block coordinates within one factor and
GT(l + c 1) = GT(l) + c 1, so supports that differ by a central translation
share their subset sums.  A bounded LRU memo keyed by (space, summands)
keeps the pair of measures of each subset sum across queries, so each
distinct subset, up to central translation, is measured once by each
route; `memo_info` reads its hits.  A memo of the same bound keeps moment
polytopes, each a hull of its weights alone, a support's central translate
among them; the Hilbert function keeps its own, of that polytope in
face-lattice coordinates, which it dilates for every k without a hull.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

from .errors import DomainError, RouteDisagreementError, ValidationError
from .gelfand_tsetlin import free_pattern_entries, newton_lift
from .lattices import AffineLattice
from .linalg import det
from .polarization import polarize
from .polynomials import integrate, product_values, progression_sum
from .polytopes import Polytope, _lattice_body, _slices, dilate, hull, lattice_points, volume
from .rationals import Q, exact_point, format_point, format_rat, is_integral
from .weyl import ChamberFace, dimension_forms, space_dims

QUOTIENT_MODE = "quotient_by_commutator"
GENERAL_MODE = "general"


@dataclass(frozen=True)
class HorosphericalSpace:
    face: ChamberFace
    lambda_h: AffineLattice  # sublattice of the face weight lattice, face coordinates
    mode: str = QUOTIENT_MODE

    def __post_init__(self):
        if self.mode not in (QUOTIENT_MODE, GENERAL_MODE):
            raise DomainError(f"unknown mode {self.mode!r}")
        if self.lambda_h.ambient_dim != self.face.dim:
            raise DomainError("Lambda(H) must be given in face coordinates")
        if any(self.lambda_h.offset[i] != 0 for i in range(self.face.dim)):
            raise DomainError("Lambda(H) is a lattice, not a coset: offset must be zero")
        if self.mode == QUOTIENT_MODE and (
                self.lambda_h.rank != self.face.dim
                or (self.lambda_h.basis != AffineLattice.standard(self.face.dim).basis
                    and abs(det(self.lambda_h.basis)) != 1)):
            raise DomainError("quotient mode requires Lambda(H) = the full face lattice")
        # immutable, so hashed once: every memo key holds the space
        object.__setattr__(self, "_hash", hash((self.face, self.lambda_h, self.mode)))

    def __hash__(self):
        return self._hash

    @classmethod
    def quotient(cls, face: ChamberFace) -> "HorosphericalSpace":
        return cls(face, AffineLattice.standard(face.dim), QUOTIENT_MODE)

    @property
    def dims(self):
        """(p, m) = (dim G/P', dim G/H)."""
        return space_dims(self.face, self.lambda_h)

    @property
    def num_supports(self) -> int:
        """How many supports an index query takes: dim of the space at hand."""
        p, m = self.dims
        return p if self.mode == QUOTIENT_MODE else m

    def measure_lattice(self) -> AffineLattice:
        """The lattice normalizing all measures on the face's span."""
        if self.mode == QUOTIENT_MODE:
            return AffineLattice.standard(self.face.dim)
        return self.lambda_h


@dataclass(frozen=True)
class SupportSet:
    """A finite set of dominant weights on the space's face.

    Weights are stored in face coordinates.  In general (linear-system) mode
    all pairwise differences must lie in Lambda(H).
    """

    space: HorosphericalSpace
    weights: tuple  # sorted int tuples in face coordinates

    def __post_init__(self):
        pts = sorted({exact_point(w, "support weights") for w in self.weights})
        if not pts:
            raise DomainError("support set must be nonempty")
        for w in pts:
            if len(w) != self.space.face.dim:
                raise DomainError("support weight has wrong face dimension")
            if any(type(x) is not int for x in w):  # exact_point made integral entries ints
                raise DomainError(f"support weight {format_point(w)} is not integral")
            if not self.space.face.face_contains_coords(w):
                raise DomainError(f"support weight {format_point(w)} is not dominant "
                                  f"on the face")
        if self.space.mode == GENERAL_MODE:
            base = pts[0]
            for w in pts[1:]:
                diff = tuple(a - b for a, b in zip(w, base))
                if not self.space.lambda_h.contains(diff):
                    raise DomainError(
                        f"support weights must lie in one coset of Lambda(H); "
                        f"{format_point(w)} - {format_point(base)} is not in the lattice")
        object.__setattr__(self, "weights", tuple(pts))

    @classmethod
    def from_full_weights(cls, space: HorosphericalSpace, weights) -> "SupportSet":
        coords = [space.face.face_coordinates(w) for w in weights]
        return cls(space, tuple(coords))

    def coset_lattice(self) -> AffineLattice:
        """The affine lattice the completion lives on."""
        if self.space.mode == QUOTIENT_MODE:
            return AffineLattice.standard(self.space.face.dim)
        return AffineLattice(self.weights[0], self.space.lambda_h.basis)


def moment_polytope(support: SupportSet) -> Polytope:
    """Convex hull of the support, in face coordinates, kept per weights in
    a bounded LRU memo: a `Polytope` is immutable."""
    return _lru(_moments, support.weights, lambda: hull(support.weights))


def product_support(a: SupportSet, b: SupportSet) -> SupportSet:
    if a.space != b.space:
        raise DomainError("supports belong to different spaces")
    pts = {tuple(x + y for x, y in zip(p, q)) for p in a.weights for q in b.weights}
    return SupportSet(a.space, tuple(pts))


def completion_support(support: SupportSet) -> SupportSet:
    """Largest support with the same moment polytope: in quotient mode all
    face-lattice points of the polytope, in general mode the points of the
    Lambda(H)-coset inside it."""
    poly = moment_polytope(support)
    pts = lattice_points(poly, support.coset_lattice())
    return SupportSet(support.space, tuple(pts))


def _require_count_integer(value, what: str):
    if value < 0 or not is_integral(value):
        raise ValidationError(
            f"{what} produced {value}, which is not a nonnegative integer; "
            f"this is a bug or corrupted input, never a legitimate answer")
    return value


_MEMO_BOUND = 1024  # entries per memo; bounded so that memory stays flat over any run
_memo = OrderedDict()  # (space, summands sorted by hash) -> (integral, lift volume)
_memo_counts = [0, 0]  # lookups, misses
_moments = OrderedDict()  # support weights -> their hull
_bodies = OrderedDict()  # support weights -> their hull in face-lattice coordinates
_MISSING = object()


def memo_info():
    """(hits, misses, bound, size) of the memo of subset-sum measures, counted
    per subset: one lookup gives both routes' measures of one subset sum."""
    lookups, misses = _memo_counts
    return lookups - misses, misses, _MEMO_BOUND, len(_memo)


def memo_clear():
    """Empty the memos and zero the counts."""
    for memo in (_memo, _moments, _bodies):
        memo.clear()
    _memo_counts[:] = [0, 0]


def _lru(memo, key, compute):
    """memo[key], from compute() on a miss, evicting the least recently used;
    a hit hashes the key twice, to find it and to move it to the end."""
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        value = memo[key] = compute()
        if len(memo) > _MEMO_BOUND:
            memo.popitem(last=False)
    else:
        memo.move_to_end(key)
    return value


def _centered_polytope(support: SupportSet) -> Polytope:
    """The hull of the support's weights less the central part of the
    first: per GL factor the coordinate its last column reads, taken from
    all of the factor's block coordinates, and its torus coordinates, taken
    from theirs.  It is kept in the moment-polytope memo under the moved
    weights, so supports that are central translates of each other share
    one hull."""
    face, weights = support.space.face, support.weights
    w0 = weights[0]
    shift = [w0[cols[-1]] for cols in face.columns for _ in range(cols[0], cols[-1] + 1)]
    shift += w0[face.num_blocks:]
    moved = tuple(tuple(x - t for x, t in zip(w, shift)) for w in weights)
    return _lru(_moments, moved, lambda: hull(moved))


def _lift_lattice(space: HorosphericalSpace) -> AffineLattice:
    """Normalizing lattice for lifted polytopes: Lambda(H) (or the face
    lattice) extended by the free Gelfand-Tsetlin coordinates."""
    nfree = sum(len(f) for f in free_pattern_entries(space.face))
    total = space.face.dim + nfree
    base = space.measure_lattice()
    basis = [tuple(b) + (0,) * nfree for b in base.basis]
    for i in range(nfree):
        basis.append(tuple(0 for _ in range(space.face.dim))
                     + tuple(1 if j == i else 0 for j in range(nfree)))
    return AffineLattice((0,) * total, tuple(basis))


@lru_cache(maxsize=_MEMO_BOUND)
def _routes(space: HorosphericalSpace):
    """D -> (integral over D of the top Weyl term, volume of the
    Gelfand-Tsetlin lift of D), built once per space, so the rank check of
    the lift lattice runs once.  The top Weyl term is the linear parts of
    the face's `dimension_forms` over their divisor.  The lift is
    Minkowski-linear on the dominant cone, as GT(l + m) = GT(l) + GT(m), so
    polarizing the lift's volume gives the mixed volume of the lifts, and
    no Minkowski sum is formed in the lifted space."""
    forms, divisor = dimension_forms(space.face)
    phi = tuple(a for a, _ in forms), divisor
    base = space.measure_lattice()
    lattice = _lift_lattice(space)
    if lattice.rank != space.num_supports:
        raise DomainError(f"lift direction space has rank {lattice.rank}, "
                          f"but {space.num_supports} supports are needed")

    def measure(body):
        # dim lift(D) <= dim D + the free entries, so a D below the measure
        # lattice's rank measures 0 on both routes
        if body.dim < base.rank:
            return 0, 0
        lift = newton_lift(space.face, body)
        return (integrate(phi, body, base),
                volume(lift, lattice) if lift.dim >= lattice.rank else 0)

    return measure


def hilbert_function(space: HorosphericalSpace, support: SupportSet, k: int) -> int:
    """dim of the completion of the k-th power: the sum of irreducible
    dimensions over the face-lattice points of the k-fold dilated moment
    polytope.  Quotient mode only.

    The moment polytope is kept per support in a bounded LRU memo of its
    own, which hulls the weights on a miss, and dilated by scaling.  A
    dimension is F / divisor, F the product of the face's
    `dimension_forms`; `progression_sum` sums it over each slice and
    certifies it a positive integer there, or the slice is checked point by
    point, where a remainder or a value <= 0 raises."""
    if space.mode != QUOTIENT_MODE:
        raise DomainError("the Hilbert function is defined for quotient mode only")
    if support.space != space:
        raise DomainError("support belongs to a different space")
    if type(k) is not int:
        raise DomainError(f"Hilbert function argument k must be an int, got {k!r}")
    if k < 0:
        raise DomainError("Hilbert function argument must be nonnegative")
    forms, divisor = dimension_forms(space.face)
    body = _lru(_bodies, support.weights, lambda: _lattice_body(
        hull(support.weights), AffineLattice.standard(space.face.dim)))
    total = 0
    for first, step, count in _slices(dilate(body, k)):
        value = progression_sum(forms, first, step, count, divisor)
        if value is None:
            points = [tuple(x + t * s for x, s in zip(first, step)) for t in range(count)]
            for pt, f in zip(points, product_values(forms, points)):
                if f % divisor or f <= 0:
                    raise ValidationError(f"dimension formula gave "
                                          f"{format_rat(Q(f, divisor))} at {format_point(pt)}")
            value = sum(product_values(forms, points)) // divisor
        total += value
    return total


def self_index_via_hilbert(space: HorosphericalSpace, support: SupportSet):
    """Leading coefficient of the Hilbert function times p!.

    H(k) is a polynomial of degree <= p = dim G/P' (weighted lattice-point
    count of an integral polytope), so the index is the p-th finite
    difference of H at 0.  One extra node checks the degree bound.
    """
    p, _ = space.dims
    values = [hilbert_function(space, support, k) for k in range(p + 2)]
    index = sum((-1) ** (p - j) * comb(p, j) * values[j] for j in range(p + 1))
    check = sum((-1) ** (p + 1 - j) * comb(p + 1, j) * values[j] for j in range(p + 2))
    if check != 0:
        raise ValidationError("Hilbert function is not a polynomial of the expected degree")
    return _require_count_integer(Q(index), "Hilbert-function route")


@dataclass(frozen=True)
class IndexReport:
    index: int
    integral_route: object
    lift_route: object
    hilbert_route: object = None  # None when not applicable


def index_report(space: HorosphericalSpace, supports) -> IndexReport:
    """Compute every applicable route and insist on exact agreement.  The
    polytope routes are n! times the polarizations of the two measures of
    `_routes(space)` over the moment polytopes, n the space's dimension:
    counts of solutions, so nonnegative integers.  Each subset sum's pair of
    measures is looked up in the memo first."""
    n = space.num_supports
    if len(supports) != n:
        kind = "dim(G/P')" if space.mode == QUOTIENT_MODE else "dim(G/H)"
        raise DomainError(f"need exactly {n} supports (= {kind}), got {len(supports)}")
    if any(s.space != space for s in supports):
        raise DomainError("support belongs to a different space")
    measure = _routes(space)

    def measures(summands, total):
        def compute():
            _memo_counts[1] += 1
            return measure(total())

        # a polytope's hash is stored, so it orders summands cheaply; equal
        # hashes of unequal polytopes only cost a second entry
        _memo_counts[0] += 1
        return _lru(_memo, (space, tuple(sorted(summands, key=hash))), compute)

    values = (polarize(measures, [_centered_polytope(s) for s in supports]) if n
              else (Q(1), Q(1)))  # the index on a point
    via_integral = _require_count_integer(factorial(n) * values[0], "mixed-integral route")
    via_lift = _require_count_integer(factorial(n) * values[1], "mixed-volume-of-lifts route")
    if via_integral != via_lift:
        raise RouteDisagreementError(
            f"mixed integral gave {via_integral} but mixed volume of lifts gave {via_lift}")
    via_hilbert = None
    if (space.mode == QUOTIENT_MODE and supports
            and all(s.weights == supports[0].weights for s in supports)):
        via_hilbert = self_index_via_hilbert(space, supports[0])
        if via_hilbert != via_integral:
            raise RouteDisagreementError(
                f"Hilbert route gave {via_hilbert}, polytope routes gave {via_integral}")
    return IndexReport(index=int(via_integral.numerator),
                       integral_route=via_integral,
                       lift_route=via_lift,
                       hilbert_route=via_hilbert)
