"""Exception types shared across the package, and the integer-argument
check that raises one."""


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
