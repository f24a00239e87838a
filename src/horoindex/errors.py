"""Exception hierarchy."""


class HoroindexError(Exception):
    """Base class for library errors."""


class DomainError(HoroindexError, ValueError):
    """Bad input: dimension mismatch, empty hull, non-dominant weight, ..."""


def check_length(vec, n):
    """Raise DomainError unless vec has exactly n coordinates."""
    if len(vec) != n:
        raise DomainError(f"expected {n} coordinates, got {len(vec)}")


class ValidationError(HoroindexError):
    """A theorem-backed integrality or consistency check failed.

    This signals a bug or corrupted data, never a legitimate answer.
    """


class RouteDisagreementError(ValidationError):
    """Two independent index computations produced different values."""
