"""The expanded `Fraction` Weyl polynomials and the Hilbert function summed
from them: the reference the factored integer route is compared against.
`top_component` reads phi_sigma off an expanded F_sigma.

Weyl's formula is expanded as a `Polynomial` with rational coefficients,
restricted to a face by substituting its embedding, which the block walk of
`block_walk.py` finds without `ChamberFace.columns`, and evaluated point by
point in `Fraction`s, without `weyl.dimension_forms`,
`polynomials.progression_sum` or `dilate`: the Hilbert function's oracle
hulls the dilated weights itself and sums over every point.
"""

import block_walk
from horoindex import AffineLattice, Polynomial, Q, hull, lattice_points


def expanded_weyl_polynomial(group):
    """prod over factors prod_{i<j} (l_i - l_j + j - i) / (j - i), expanded."""
    r = group.rank
    result = Polynomial.constant(1, r)
    start = 0  # the factor's first weight coordinate
    for n in group.gl_factors:
        for i in range(start, start + n):
            for j in range(i + 1, start + n):
                coeffs = [0] * r
                coeffs[i], coeffs[j] = 1, -1
                result = result * Polynomial.linear(coeffs, j - i) * Q(1, j - i)
        start += n
    return result


def top_component(poly):
    """The terms of poly of the highest total degree: phi_sigma of an
    expanded F_sigma.  The zero polynomial is its own top component."""
    if not poly.terms:
        return poly
    d = poly.degree()
    return Polynomial({e: c for e, c in poly.terms.items() if sum(e) == d},
                      poly.num_vars)


def embedding_matrix(face):
    """rank x dim matrix E with full_weight = E @ face_coordinates: column c
    is the full weight of the c-th unit vector of face coordinates."""
    cols = [block_walk.expand(face, tuple(int(i == c) for i in range(face.dim)))
            for c in range(face.dim)]
    return [tuple(col[r] for col in cols) for r in range(face.group.rank)]


def expanded_restriction(face):
    """F_sigma: the expanded polynomial pulled back to face coordinates."""
    return expanded_weyl_polynomial(face.group).compose_affine(
        embedding_matrix(face), [0] * face.group.rank)


def hilbert_function_by_expansion(space, support, k):
    """Sum of F_sigma, evaluated in `Fraction`s, over the lattice points of
    the k-fold dilated moment polytope, the hull of the dilated weights."""
    f_sigma = expanded_restriction(space.face)
    poly = hull([tuple(k * x for x in w) for w in support.weights])
    total = Q(0)
    for pt in lattice_points(poly, AffineLattice.standard(space.face.dim)):
        value = f_sigma(pt)
        assert value.denominator == 1 and value > 0, (value, pt)
        total += value
    return int(total)
