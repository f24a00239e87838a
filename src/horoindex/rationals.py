"""Exact rational scalars.

All arithmetic in the library is exact.  Rational values (input points,
volumes, integrals, polynomial coefficients) are fractions.Fraction, named
Q throughout.  Support weights are int tuples, and a `Polytope` stores its
vertices as ints over one denominator, scaled once in `polytopes.hull`;
the kernel and the three routes compute on ints.  The helpers below accept
ints too, which carry numerator and denominator.
"""

from fractions import Fraction as Q


ZERO = Q(0)


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
