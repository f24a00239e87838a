"""Intersection indices on horospherical homogeneous spaces.

A space is the pair (chamber face, sublattice Lambda(H)) together with a
mode: `quotient_by_commutator` works with invariant subspaces of regular
functions on G/P' (supports are arbitrary finite sets of dominant weights on
the face, measure normalized to the face's weight lattice), while `general`
works with invariant linear systems on G/H (supports lie in a coset of
Lambda(H), measure normalized to Lambda(H)).

The index of a system of supports is computed by three independent routes:

* mixed integral of the top Weyl component over the moment polytopes,
* mixed volume of the Gelfand-Tsetlin lifts of the moment polytopes, taken
  as the polarization of D -> vol(lift(D)) over the moment polytopes,
* (on diagonals, quotient mode) the leading coefficient of the Hilbert
  function k -> sum of irreducible dimensions over the dilated polytope.

Exact agreement of the routes is the library's own strongest self-check and
is enforced by `index_report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from .errors import DomainError, RouteDisagreementError, ValidationError
from .gelfand_tsetlin import free_pattern_entries, newton_lift
from .lattices import AffineLattice
from .polarization import polarize
from .polynomials import integrate
from .polytopes import Polytope, dilate, hull, lattice_points, volume
from .rationals import Q, is_integral
from .weyl import ChamberFace, restricted_weyl, space_dims

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
        if self.mode == QUOTIENT_MODE and self.lambda_h.rank != self.face.dim:
            raise DomainError("quotient mode requires Lambda(H) = the full face lattice")

    @classmethod
    def quotient(cls, face: ChamberFace) -> "HorosphericalSpace":
        return cls(face, AffineLattice.standard(face.dim), QUOTIENT_MODE)

    @property
    def group(self):
        return self.face.group

    @property
    def dims(self):
        """(p, m) = (dim G/P', dim G/H)."""
        return space_dims(self.face, self.lambda_h)

    @property
    def num_supports(self) -> int:
        """How many supports an index query takes: dim of the space at hand."""
        p, m = self.dims
        return p if self.mode == QUOTIENT_MODE else m

    @property
    def weyl_restriction(self):
        return restricted_weyl(self.face)

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
    weights: tuple  # face-coordinate integral points, sorted

    def __post_init__(self):
        pts = sorted({tuple(Q(x) for x in w) for w in self.weights})
        if not pts:
            raise DomainError("support set must be nonempty")
        for w in pts:
            if len(w) != self.space.face.dim:
                raise DomainError("support weight has wrong face dimension")
            if any(not is_integral(x) for x in w):
                raise DomainError(f"support weight {w} is not integral")
            if not self.space.face.face_contains_coords(w):
                raise DomainError(f"support weight {w} is not dominant on the face")
        if self.space.mode == GENERAL_MODE:
            base = pts[0]
            for w in pts[1:]:
                diff = tuple(a - b for a, b in zip(w, base))
                if not self.space.lambda_h.contains(
                        tuple(x + o for x, o in zip(diff, self.space.lambda_h.offset))):
                    raise DomainError(
                        f"support weights must lie in one coset of Lambda(H); "
                        f"{w} - {base} is not in the lattice")
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
    """Convex hull of the support, in face coordinates."""
    return hull(support.weights)


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


def _polarized_index(space: HorosphericalSpace, supports, measure, route: str):
    """n! times the polarization of `measure` over the moment polytopes, n the
    space's dimension: a count of solutions, so a nonnegative integer."""
    n = space.num_supports
    if len(supports) != n:
        kind = "dim(G/P')" if space.mode == QUOTIENT_MODE else "dim(G/H)"
        raise DomainError(f"need exactly {n} supports (= {kind}), got {len(supports)}")
    if any(s.space != space for s in supports):
        raise DomainError("support belongs to a different space")
    if n == 0:
        return Q(1)  # the index on a point
    value = factorial(n) * polarize(measure, [moment_polytope(s) for s in supports])
    return _require_count_integer(value, route)


def index_via_integral(space: HorosphericalSpace, supports):
    """n! times the mixed integral of the top Weyl term over the moment polytopes."""
    _, phi = space.weyl_restriction
    lattice = space.measure_lattice()

    def measure(body):
        return integrate(phi, body, lattice) if body.dim >= lattice.rank else 0

    return _polarized_index(space, supports, measure, "mixed-integral route")


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


def index_via_lift(space: HorosphericalSpace, supports):
    """n! times the mixed volume of the Gelfand-Tsetlin lifts of the moment
    polytopes, in (face coords x free pattern coords).  The lift is
    Minkowski-linear on the dominant cone, as GT(l + m) = GT(l) + GT(m), so
    this is the polarization of D -> vol(lift(D)) over the moment polytopes,
    and no Minkowski sum is formed in the lifted space."""
    lattice = _lift_lattice(space)
    if lattice.rank != space.num_supports:
        raise DomainError(f"lift direction space has rank {lattice.rank}, "
                          f"but {space.num_supports} supports are needed")

    def measure(body):
        lift = newton_lift(space.face, body)
        return volume(lift, lattice) if lift.dim >= lattice.rank else 0

    return _polarized_index(space, supports, measure, "mixed-volume-of-lifts route")


def hilbert_function(space: HorosphericalSpace, support: SupportSet, k: int) -> int:
    """dim of the completion of the k-th power: the sum of irreducible
    dimensions over the face-lattice points of the k-fold dilated moment
    polytope.  Quotient mode only."""
    if space.mode != QUOTIENT_MODE:
        raise DomainError("the Hilbert function is defined for quotient mode only")
    if k < 0:
        raise DomainError("Hilbert function argument must be nonnegative")
    f_sigma, _ = space.weyl_restriction
    poly = dilate(moment_polytope(support), k)
    total = 0
    for pt in lattice_points(poly, AffineLattice.standard(space.face.dim)):
        value = f_sigma(pt)
        if not is_integral(value) or value <= 0:
            raise ValidationError(f"dimension formula gave {value} at {pt}")
        total += int(value.numerator)
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
    """Compute every applicable route and insist on exact agreement."""
    via_integral = index_via_integral(space, supports)
    via_lift = index_via_lift(space, supports)
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
