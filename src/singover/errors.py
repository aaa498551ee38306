"""Exception types shared across the package."""


class SingoverError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(SingoverError, ValueError):
    """A parameter lies outside its documented range."""


class DegreeMismatchError(SingoverError, ValueError):
    """Two series with different truncation degrees were combined."""


class NonUnitDivisorError(SingoverError, ValueError):
    """Series division needs a divisor whose constant term is a unit."""


class TableTooShortError(SingoverError, ValueError):
    """A coefficient table does not cover the requested degree."""


class PreconditionError(SingoverError, ValueError):
    """A hypothesis the caller must establish does not hold."""


class DiscrepancyError(SingoverError, RuntimeError):
    """A guaranteed property failed to hold; this is reportable, never tolerated.

    Raised when e.g. an interval that provably contains a parity witness
    yields none, or a census count falls below its proven lower bound.
    The offending payload, when available, is attached as ``payload``.
    """

    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = payload
