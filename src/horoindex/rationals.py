"""Exact rational scalars.

All arithmetic in the library is exact.  Rational values (points, weights,
volumes, integrals, polynomial coefficients) are fractions.Fraction, named
Q throughout; the geometry kernel in `linalg` and `polytopes` scales them
to Python ints once and computes on those, as do the Hilbert route and
the integral route (`polynomials.integrate`).  The helpers below accept
ints too, which carry numerator and denominator.
"""

from fractions import Fraction as Q


ZERO = Q(0)


def rat_floor(q):
    return q.numerator // q.denominator


def rat_ceil(q):
    return -((-q.numerator) // q.denominator)


def is_integral(q) -> bool:
    return q.denominator == 1


def format_rat(q) -> str:
    """Render as 'p' or 'p/q'; never a float."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_point(v) -> str:
    """Render a point as '(p, p/q, ...)', for messages."""
    return "(" + ", ".join(format_rat(x) for x in v) + ")"
