"""Exception types shared across the package, one per outcome.

``ParameterError`` is bad input: a value outside its documented range,
series of different truncation degrees, a divisor without a unit
constant term, or a table that does not cover the degrees read; the
command line exits 2. ``PreconditionError`` is a hypothesis of a
theorem that does not hold, so the case is skipped.
``DiscrepancyError`` is a proven statement that failed; the command
line exits 1. A parity table that ends inside an interval with no
witness before its end raises nothing: the interval finders return
None, and the caller may build a deeper table.
"""


class SingoverError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(SingoverError, ValueError):
    """A parameter lies outside its documented range."""


class PreconditionError(SingoverError, ValueError):
    """A hypothesis the caller must establish does not hold."""


class DiscrepancyError(SingoverError, RuntimeError):
    """A guaranteed property failed to hold; this is reportable, never tolerated.

    Raised when an interval that provably contains a parity witness
    yields none; the message names the interval and its l.
    """
