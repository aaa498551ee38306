"""Parity structure of singular overpartition counts.

The backbone is a mod-2 identity: multiplying the generating function by
(q;q) leaves the sparse theta numerator, whose positive exponents are
exactly the values (k m^2 +- m(k-2i))/2 with m >= 1. Consequences
implemented here:

* ``exceptional_set`` enumerates those exponents with their (m, sign)
  witnesses.
* ``convolution_parity_check`` verifies, per n, that the pentagonal
  convolution of table values has the parity of the theta coefficient
  of q^n, which is the number of (m, sign) witnesses of n;
  ``convolution_parity_failures`` runs it for every n of a table.
* ``form_witness`` and the exclusion checks handle the quadratic-form
  question "is T = k m^2 +- m(k-2i) solvable" that gates the interval
  results.
* ``find_even_in_interval`` and ``find_odd_in_interval`` locate the
  guaranteed parity witnesses in [l, l(3l+1)/2] and [2l-1, l(3l-1)/2].

Caveat worth knowing: for even k with i = k/2 the two signs coincide,
every exceptional exponent has two witnesses and the convolution is even
there. Odd on the exceptional set therefore holds for i < k/2 only; the
per-n check compares with the witness count and holds for every
admissible (k, i).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import qseries as qs
from .errors import (
    DiscrepancyError,
    ParameterError,
    PreconditionError,
    TableTooShortError,
)
from .params import SingularParams


class ExceptionalForm:
    """Integers n <= bound with n = (k m^2 +- m(k-2i))/2 for some m >= 1.

    Membership is set-like; ``witnesses(n)`` returns every (m, sign)
    pair that produces n, sign being +1 or -1.
    """

    def __init__(self, params: SingularParams, bound: int):
        self.params = params
        self.bound = bound
        self._witnesses: dict[int, list[tuple[int, int]]] = {}
        k, d = params.k, params.k - 2 * params.i
        m = 1
        while True:
            lo = (k * m * m - m * d) // 2
            if lo > bound:
                break
            self._witnesses.setdefault(lo, []).append((m, -1))
            hi = (k * m * m + m * d) // 2
            if hi <= bound:
                self._witnesses.setdefault(hi, []).append((m, +1))
            m += 1

    def __contains__(self, n: int) -> bool:
        return n in self._witnesses

    def __iter__(self):
        return iter(sorted(self._witnesses))

    def __len__(self) -> int:
        return len(self._witnesses)

    def members(self) -> frozenset[int]:
        return frozenset(self._witnesses)

    def witnesses(self, n: int) -> tuple[tuple[int, int], ...]:
        return tuple(self._witnesses.get(n, ()))

    def __repr__(self):
        return (
            f"ExceptionalForm(k={self.params.k}, i={self.params.i}, "
            f"bound={self.bound}, size={len(self)})"
        )


def exceptional_set(params: SingularParams, bound: int) -> ExceptionalForm:
    """Enumerate the exceptional set up to the bound, with witnesses."""
    if bound < 0:
        raise ParameterError("bound must be nonnegative")
    return ExceptionalForm(params, bound)


def convolution_parity_check(params: SingularParams, n: int, table) -> bool:
    """Check the pentagonal convolution parity at a single positive n.

    Sums table values at n minus every generalized pentagonal offset,
    reduces mod 2, and compares against the parity of the theta
    coefficient of q^n, i.e. of the number of witnesses of n in the
    exceptional set. For i < k/2 that is odd on the set and even off
    it; at i = k/2 every member has two witnesses, so it is even.
    """
    if n < 1:
        raise ParameterError(f"the convolution identity is about n >= 1, got {n}")
    if table.trunc_degree < n:
        raise TableTooShortError(
            f"table degree {table.trunc_degree} does not cover n = {n}"
        )
    return _convolution_holds(table.values, n, exceptional_set(params, n))


def convolution_parity_failures(params: SingularParams, table) -> list[int]:
    """Every n in 1..N at which ``convolution_parity_check`` fails.

    The same per-n check, with one exceptional set to the table degree
    and the table's parities read once for all n.
    """
    exceptional = exceptional_set(params, table.trunc_degree)
    parities = [v & 1 for v in table.values]
    return [
        n
        for n in range(1, table.trunc_degree + 1)
        if not _convolution_holds(parities, n, exceptional)
    ]


def _convolution_holds(values, n: int, exceptional: ExceptionalForm) -> bool:
    total = values[n]  # s = 0 term of the first sum
    s = 1
    while True:
        e = s * (3 * s - 1) // 2
        if e > n:
            break
        total += values[n - e]
        e = s * (3 * s + 1) // 2
        if e <= n:
            total += values[n - e]
        s += 1
    return (total & 1) == (len(exceptional.witnesses(n)) & 1)


def convolution_mismatches(params: SingularParams, table) -> list[int]:
    """Wholesale form of the convolution check over the whole table.

    Multiplies the table series by (q;q), reduces mod 2 and compares
    against the theta numerator mod 2, coefficient by coefficient.
    Returns every mismatching degree in increasing order; the list is
    empty when the identity holds through the truncation degree.
    """
    n = table.trunc_degree
    lhs = qs.reduce_mod2(qs.mul(qs.eta_product(1, n), table.series()))
    rhs = qs.reduce_mod2(qs.theta_sum(params.k, params.i, n))
    return list(qs.TruncSeriesF2(lhs.bits ^ rhs.bits, n).support())


def first_convolution_mismatch(params: SingularParams, table) -> int | None:
    """The first degree ``convolution_mismatches`` returns, or None."""
    bad = convolution_mismatches(params, table)
    return bad[0] if bad else None


def form_witness(k: int, i: int, target: int) -> tuple[int, int] | None:
    """Smallest m >= 1 with k m^2 +- m(k-2i) = target, or None.

    Scans m upward while the minus branch stays <= target; that branch
    is increasing in m, so the scan is exhaustive without any square
    roots. Returns (m, sign).
    """
    if not isinstance(k, int) or k < 3:
        raise ParameterError(f"modulus k must be an integer >= 3, got {k}")
    if not 1 <= i <= k // 2:
        raise ParameterError(f"residue i must satisfy 1 <= i <= floor(k/2), got {i}")
    if target < 1:
        raise ParameterError(f"target must be positive, got {target}")
    d = k - 2 * i
    m = 1
    while True:
        lo = k * m * m - m * d
        if lo > target:
            return None
        if lo == target:
            return (m, -1)
        if k * m * m + m * d == target:
            return (m, +1)
        m += 1


def is_form_value(k: int, i: int, target: int) -> bool:
    return form_witness(k, i, target) is not None


def form_values(k: int, i: int, bound: int) -> frozenset[int]:
    """Every value k m^2 +- m(k-2i) <= bound, m >= 1, in one batch.

    Same scan as ``form_witness`` but collecting values; bulk exclusion
    checks test membership here instead of rescanning per target.
    """
    if not isinstance(k, int) or k < 3:
        raise ParameterError(f"modulus k must be an integer >= 3, got {k}")
    if not 1 <= i <= k // 2:
        raise ParameterError(f"residue i must satisfy 1 <= i <= floor(k/2), got {i}")
    d = k - 2 * i
    out = set()
    m = 1
    while True:
        lo = k * m * m - m * d
        if lo > bound:
            return frozenset(out)
        out.add(lo)
        hi = k * m * m + m * d
        if hi <= bound:
            out.add(hi)
        m += 1


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _check_prime_ell(p: int, ell: int, residue: int) -> None:
    if not _is_prime(p) or p < 5:
        raise ParameterError(f"p must be a prime >= 5, got {p}")
    if ell < 2:
        raise ParameterError(f"l must be >= 2, got {ell}")
    if ell % 3 != residue:
        raise ParameterError(f"l must be {residue} mod 3, got {ell} = {ell % 3} mod 3")


def even_exclusion_holds(p: int, ell: int) -> bool:
    """True when l(3l+1) is not of the form p m^2 +- m(p-2).

    Holds for every prime p >= 5 and l = 1 mod 3; a False return is a
    counterexample to a proven statement and should be reported.
    """
    _check_prime_ell(p, ell, 1)
    return not is_form_value(p, 1, ell * (3 * ell + 1))


def odd_exclusion_holds(p: int, ell: int) -> bool:
    """True when l(3l-1) is not of the form p m^2 +- m(p-2)."""
    _check_prime_ell(p, ell, 2)
    return not is_form_value(p, 1, ell * (3 * ell - 1))


def exclusion_counterexamples(p: int, ell_max: int, variant: str) -> list[int]:
    """All l <= ell_max in the admissible residue class failing exclusion.

    The expected result is the empty list. Uses one batched form-value
    set per prime, so scanning l <= 10^4 takes well under a second.
    """
    if variant == "even":
        residue, t_of = 1, (lambda l: l * (3 * l + 1))
    elif variant == "odd":
        residue, t_of = 2, (lambda l: l * (3 * l - 1))
    else:
        raise ParameterError(f"variant must be 'even' or 'odd', got {variant!r}")
    if not _is_prime(p) or p < 5:
        raise ParameterError(f"p must be a prime >= 5, got {p}")
    if ell_max < 2:
        raise ParameterError(f"ell_max must be >= 2, got {ell_max}")
    start = residue if residue >= 2 else 4  # smallest admissible l >= 2
    values = form_values(p, 1, t_of(ell_max))
    return [l for l in range(start, ell_max + 1, 3) if t_of(l) in values]


@dataclass(frozen=True)
class ParityWitness:
    """A located n in [lo, hi] whose table value has the stated parity."""

    params: SingularParams
    n: int
    parity: str  # "even" | "odd"
    lo: int
    hi: int
    ell: int


def _scan_interval(params, table, lo, hi, want_bit, ell, label) -> ParityWitness:
    if table.trunc_degree < hi:
        raise TableTooShortError(
            f"table degree {table.trunc_degree} does not cover the interval "
            f"[{lo}, {hi}]"
        )
    for n in range(lo, hi + 1):
        if table.parity(n) == want_bit:
            return ParityWitness(
                params, n, "odd" if want_bit else "even", lo, hi, ell
            )
    raise DiscrepancyError(
        f"no {label} value of C-bar_{{{params.k},{params.i}}} in [{lo}, {hi}] "
        f"(l = {ell}); this contradicts a proven statement",
        payload={"params": (params.k, params.i), "lo": lo, "hi": hi, "ell": ell},
    )


def _require_excluded(params: SingularParams, target: int, mode: str) -> None:
    if mode == "single":
        residues = [params.i]
    elif mode == "strict":
        residues = list(range(1, params.k // 2 + 1))
    else:
        raise ParameterError(f"mode must be 'single' or 'strict', got {mode!r}")
    for i in residues:
        w = form_witness(params.k, i, target)
        if w is not None:
            raise PreconditionError(
                f"{target} = k m^2 {'+' if w[1] > 0 else '-'} m(k-2i) for "
                f"(k, i, m) = ({params.k}, {i}, {w[0]}); the interval "
                "guarantee does not apply"
            )


def find_even_in_interval(
    params: SingularParams, ell: int, table, mode: str = "single"
) -> ParityWitness:
    """Smallest n in [l, l(3l+1)/2] with an even table value.

    Requires l(3l+1) to avoid the quadratic form (checked here, for the
    table's own i in "single" mode or every i <= k/2 in "strict" mode).
    Existence is then guaranteed; an exhausted interval raises
    DiscrepancyError.
    """
    if ell < 2:
        raise ParameterError(f"l must be >= 2, got {ell}")
    t = ell * (3 * ell + 1)
    _require_excluded(params, t, mode)
    return _scan_interval(params, table, ell, t // 2, 0, ell, "even")


def find_odd_in_interval(
    params: SingularParams, ell: int, table, mode: str = "single"
) -> ParityWitness:
    """Smallest n in [2l-1, l(3l-1)/2] with an odd table value."""
    if ell < 2:
        raise ParameterError(f"l must be >= 2, got {ell}")
    t = ell * (3 * ell - 1)
    _require_excluded(params, t, mode)
    return _scan_interval(params, table, 2 * ell - 1, t // 2, 1, ell, "odd")
