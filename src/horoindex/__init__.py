"""Exact intersection indices on horospherical homogeneous spaces.

Everything is exact rational arithmetic: convex hulls, mixed volumes and
integrals, Gelfand-Tsetlin polytopes, Weyl dimension polynomials, and the
three independent routes to the intersection index.
"""

from .errors import (DomainError, HoroindexError, RouteDisagreementError,
                     ValidationError)
from .finite_sets import (FiniteSet, analogous, completion_set,
                          saturation_check, sumset)
from .gelfand_tsetlin import (fiber_vertices, free_pattern_entries,
                              gt_lattice_count, gt_polytope, newton_lift,
                              pattern_dim, pattern_positions)
from .lattices import AffineLattice
from .polarization import BodySystem, mixed_integral, mixed_volume, polarize
from .polynomials import Polynomial, integrate
from .polytopes import (Polytope, dilate, hull, lattice_points, minkowski_sum,
                        triangulation, volume)
from .rationals import Q, format_rat, is_integral
from .spaces import (GENERAL_MODE, QUOTIENT_MODE, HorosphericalSpace,
                     IndexReport, SupportSet, completion_support,
                     hilbert_function, index_report, index_via_integral,
                     index_via_lift, moment_polytope, product_support,
                     self_index_via_hilbert)
from .weyl import (ChamberFace, GroupDescriptor, cross_pair_count, dim_irrep,
                   restricted_weyl, space_dims, weyl_polynomial)

__version__ = "0.1.0"

__all__ = [
    "AffineLattice", "BodySystem", "ChamberFace", "DomainError", "FiniteSet",
    "GENERAL_MODE", "GroupDescriptor", "HoroindexError",
    "HorosphericalSpace", "IndexReport", "Polynomial", "Polytope", "Q",
    "QUOTIENT_MODE", "RouteDisagreementError", "SupportSet",
    "ValidationError", "analogous", "completion_set", "completion_support",
    "cross_pair_count", "dilate", "dim_irrep", "fiber_vertices", "format_rat",
    "free_pattern_entries", "gt_lattice_count", "gt_polytope",
    "hilbert_function", "hull", "index_report", "index_via_integral",
    "index_via_lift", "integrate", "is_integral", "lattice_points",
    "minkowski_sum", "mixed_integral", "mixed_volume", "moment_polytope",
    "newton_lift", "pattern_dim", "pattern_positions", "polarize",
    "product_support", "restricted_weyl", "saturation_check",
    "self_index_via_hilbert", "space_dims", "sumset", "triangulation",
    "volume", "weyl_polynomial",
]
