"""Singular overpartition counts and their parity structure.

C-bar_{k,i}(n) counts overpartitions of n in which no part is divisible
by k and only parts congruent to +-i (mod k) may be overlined. The
package computes coefficient tables by truncated q-series pipelines
whose numerators are built independently, cross-checks them against a
combinatorial dynamic-programming count, and mechanically verifies the
parity and distribution statements that follow from the pentagonal-series
convolution identity.

The package root exports the table builders, their series types and the
exception class; the checks and the layers below them are reached
through their modules.
"""

from .distribution import parity_census
from .errors import ParameterError
from .params import SingularParams
from .qseries import TruncSeriesF2, TruncSeriesZ
from .tables import coefficients_product, coefficients_theta, parity_table, special_form

__version__ = "0.1.0"

__all__ = [
    "ParameterError",
    "SingularParams",
    "TruncSeriesF2",
    "TruncSeriesZ",
    "coefficients_product",
    "coefficients_theta",
    "parity_census",
    "parity_table",
    "special_form",
]
