"""Exact rational scalars.

All arithmetic in the library is exact: every scalar is a
fractions.Fraction, named Q throughout.
"""

from fractions import Fraction as Q


ZERO = Q(0)
ONE = Q(1)


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
