"""Exception types shared across the package, and the integer check that
refuses a non-integral rank or box size.

The CLI maps these onto its exit-code contract: usage, parameter and
domain problems exit 2, vanishing-denominator problems exit 3.
"""

from operator import index


class MvdopError(Exception):
    """Base class for all package errors."""


class ParameterError(MvdopError):
    """A parameter value is outside its legal range (d <= 0, a = 0, ...)."""


class DomainError(MvdopError):
    """Parameters are legal but the request is outside the operation's domain,
    e.g. a Krawtchouk index not contained in the (N, ..., N) box."""


class PoleError(MvdopError):
    """A shifted-factorial factor in a denominator vanished for a term that
    actually contributes to the sum."""


class SingularArgumentError(MvdopError):
    """A shift-coefficient denominator vanished at the given argument."""


class TableDegreeError(MvdopError):
    """A basis table was queried beyond its built degree; extend it first."""


def integer(value, name: str) -> int:
    """``value`` as an int through ``operator.index``: a non-integral value
    (2.7, 2.0, "2") raises ParameterError instead of being truncated."""
    try:
        return index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
