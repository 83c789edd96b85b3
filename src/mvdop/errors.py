"""Exception types shared across the package, the integer check that
refuses a non-integral rank or box size, and the field-wise base of the
value classes, written out so that no module loads ``dataclasses``.

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


class _Fields:
    """``==`` and repr over the names in ``_fields``, as a dataclass has them:
    never equal to an instance of another class, a subclass included."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        args = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({args})"


class _Frozen(_Fields):
    """Fields set once in ``__init__``, past ``__setattr__``, and hashable;
    ``cached_property`` still works, as it writes the instance ``__dict__``."""

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
