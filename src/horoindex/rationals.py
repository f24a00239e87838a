"""Exact rational scalars.

All arithmetic in the library is exact.  Rational values (input points,
volumes, integrals, polynomial coefficients) are fractions.Fraction, named
Q throughout.  Support weights are int tuples, and a `Polytope` stores its
vertices as ints over one denominator, scaled once in `polytopes.hull`;
the kernel and the three routes compute on ints.  The helpers below accept
ints too, which carry numerator and denominator; `exact_point` checks
input points, turning integral entries into ints and rejecting floats.
Inputs stay ints from the start: JSON ints parse to ints
(`serialization.rat_from_json`), and an all-int point passes through
`exact_point` as it is.
"""

from fractions import Fraction as Q

from .errors import DomainError


ZERO = Q(0)


def exact_point(v, what):
    """v with its integral entries as ints and the others as Fractions; a
    float is rejected by name, and any other entry goes through Q.  An
    all-int tuple is returned as it is."""
    if type(v) is tuple and all(type(x) is int for x in v):
        return v
    for x in v:
        if isinstance(x, float):
            raise DomainError(f"{what} must be ints or Fractions, not the float {x!r}")
    v = [x if isinstance(x, (int, Q)) else Q(x) for x in v]
    return tuple(x.numerator if x.denominator == 1 else x for x in v)


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
