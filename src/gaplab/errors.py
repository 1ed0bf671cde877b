"""Exception types, and the integer check, shared across the package."""

import numbers


def is_count(value, least: int) -> bool:
    """Whether value is an integer, not a bool, of at least `least`."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= least)


class GaplabError(Exception):
    """Base class for all package errors."""


class ParameterError(GaplabError, ValueError):
    """An argument is outside its admissible range."""


class ResourceLimitError(GaplabError):
    """A dense-matrix operation would exceed the configured size limit."""


class NumericError(GaplabError):
    """A numerical routine failed or produced an inconsistent result."""


class DataError(GaplabError, ValueError):
    """Input data is malformed or internally inconsistent."""


class GapSearchError(GaplabError):
    """Peak search exhausted the maximum window without a local maximum."""
