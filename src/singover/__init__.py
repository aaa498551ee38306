"""Singular overpartition counts and their parity structure.

C-bar_{k,i}(n) counts overpartitions of n in which no part is divisible
by k and only parts congruent to +-i (mod k) may be overlined. The
package computes coefficient tables by independent truncated q-series
pipelines, cross-checks them against brute-force enumeration, and
mechanically verifies the parity and distribution statements that
follow from the pentagonal-series convolution identity.
"""

from .distribution import (
    DEFAULT_SEEDS,
    DensityReport,
    WitnessSequence,
    build_sequence,
    next_term,
    parity_census,
)
from .errors import (
    DegreeMismatchError,
    DiscrepancyError,
    NonUnitDivisorError,
    OracleCapError,
    ParameterError,
    PreconditionError,
    SingoverError,
    TableTooShortError,
)
from .oracle import (
    DEFAULT_CAP,
    OverpartitionCount,
    count_by_backtracking,
    enumerate_overpartitions,
)
from .params import SingularParams
from .parity import (
    ExceptionalForm,
    ParityWitness,
    convolution_parity_check,
    exceptional_set,
    exclusion_counterexamples,
    find_even_in_interval,
    find_odd_in_interval,
    first_convolution_mismatch,
    form_witness,
)
from .qseries import (
    TruncSeriesF2,
    TruncSeriesZ,
    div,
    div_f2,
    eta_product,
    inv_f2,
    mul,
    mul_f2,
    pochhammer_neg,
    reduce_mod2,
    theta_sum,
)
from .tables import (
    clear_caches,
    coefficients_product,
    coefficients_theta,
    parity_table,
    special_form,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CAP",
    "DEFAULT_SEEDS",
    "DegreeMismatchError",
    "DensityReport",
    "DiscrepancyError",
    "ExceptionalForm",
    "NonUnitDivisorError",
    "OracleCapError",
    "OverpartitionCount",
    "ParameterError",
    "ParityWitness",
    "PreconditionError",
    "SingoverError",
    "SingularParams",
    "TableTooShortError",
    "TruncSeriesF2",
    "TruncSeriesZ",
    "WitnessSequence",
    "build_sequence",
    "clear_caches",
    "coefficients_product",
    "coefficients_theta",
    "convolution_parity_check",
    "count_by_backtracking",
    "div",
    "div_f2",
    "enumerate_overpartitions",
    "eta_product",
    "exceptional_set",
    "exclusion_counterexamples",
    "find_even_in_interval",
    "find_odd_in_interval",
    "first_convolution_mismatch",
    "form_witness",
    "inv_f2",
    "mul",
    "mul_f2",
    "next_term",
    "parity_census",
    "parity_table",
    "pochhammer_neg",
    "reduce_mod2",
    "special_form",
    "theta_sum",
]
