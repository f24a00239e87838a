"""Exact rational scalars.

All arithmetic in the library is exact.  We use gmpy2.mpq when available
(noticeably faster for the hull and polarization inner loops) and fall back
to fractions.Fraction, which has the same arithmetic interface.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover
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
