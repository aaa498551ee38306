"""The package's one exception class and its one degree rule.

``ParameterError`` is bad input: a value outside its documented range,
series of different truncation degrees, a divisor without a unit
constant term, or a table that does not cover the degrees read; the
command line exits 2. ``require_degree`` is the rule that a truncation
degree is >= 0, written once for every series and table builder. A
proven statement that fails raises nothing: the checks report it as a
failed record and the command line exits 1. An l the interval guarantee
does not cover is a skip in the report, and an interval finder that
finds no witness returns None.
"""


class ParameterError(ValueError):
    """A parameter lies outside its documented range."""


def require_degree(trunc_degree: int) -> None:
    if trunc_degree < 0:
        raise ParameterError("truncation degree must be nonnegative")
