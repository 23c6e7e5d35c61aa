"""Partitions into Mersenne parts 2^k - 1: exact counts, precise
asymptotics of the log-count, an audit of a published upper bound, and
the modular-exponentiation application of the decomposition."""

# each module's __all__ is the one list of what it exports
from .asymptotics import *  # noqa: F401,F403
from .bhatt import *  # noqa: F401,F403
from .counting import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .modexp import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403
from .specfun import *  # noqa: F401,F403

__version__ = "0.1.0"
