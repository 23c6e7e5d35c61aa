"""Exception types shared across the package, and the argument checks
that decide when to raise one."""

import math
import numbers


class DomainError(ValueError):
    """An argument lies outside the supported domain of an operation."""


class PoleError(DomainError):
    """A special function was evaluated at one of its poles."""


class AccuracyError(ArithmeticError):
    """A numerical routine could not meet the requested tolerance.

    The best available estimate, when one exists, is attached as ``best``.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


def _check_int(name: str, value, low: int | None = None) -> None:
    """DomainError unless value is an int, not a bool, and >= low if given."""
    # type, not isinstance: bool is an int subclass, and a float would
    # pass the range test and fail later in bit_length or np.zeros
    if type(value) is not int or low is not None and value < low:
        floor = "" if low is None else f" >= {low}"
        raise DomainError(f"{name} must be an int{floor}, got {value!r}")


def _is_real(x) -> bool:
    """True for a real number that is not a bool."""
    # a str or None would raise TypeError in a comparison, and a bool
    # would pass as 0 or 1.  float and int are tested first: the estimates
    # check on every call, and the ABC isinstance costs ten times the
    # comparison
    return (type(x) is float or type(x) is int
            or not isinstance(x, bool) and isinstance(x, numbers.Real))


def _is_finite_real(x) -> bool:
    """True for a real number, not a bool, that converts to a finite float."""
    try:
        return _is_real(x) and math.isfinite(x)
    except OverflowError:  # an exact int past the float range
        return False
