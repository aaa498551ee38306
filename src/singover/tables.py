"""Coefficient tables C-bar_{k,i}(0..N) from independent series pipelines.

Three routes to the same numbers:

* ``coefficients_product``: the defining infinite-product quotient
  (q^k;q^k) (-q^i;q^k) (-q^(k-i);q^k) / (q;q). It starts from the
  sparse pentagonal expansion of (q^k;q^k), multiplies in each factor
  (1 + q^c) with c = i or k-i (mod k) in place, one O(N) slice update
  per factor and so O(N^2 / k) in all, and divides by (q;q). It never
  forms a dense-by-dense product and never touches the theta numerator,
  so its agreement with the theta route is an independent cross-check.
* ``coefficients_theta``: Andrews' theta identity, a sparse two-sided
  theta numerator divided by (q;q). This is the default fast exact path.
* ``special_form``: the reduced eta-quotients available when (k, i) is
  (3k', k'), (4k', k') or (6k', k').

``parity_table`` is the mod-2 shortcut used by the witness searches: the
same theta quotient carried out entirely in packed GF(2) arithmetic. Its
two inputs, the theta numerator and (q;q) mod 2, are built as bits
straight from ``qseries.form_exponents``, with no integer series.

Each route keeps, per (k, i), the largest table built so far, so the
parity and distribution layers share one expansion. A smaller request
is a slice of it; a larger theta table resumes the forward substitution
from the held degree, while product and parity tables are rebuilt. The
stores hold at most STORE_BUDGET pairs each and are guarded by one lock
per store, so the tables can be requested from several threads.

Edge case: for even k with i = k/2 the residues +i and -i coincide and
the product formula lists the same overline factor twice. Every route
follows the formula literally, and so does the oracle: a part value
v = k/2 (mod k) carries two distinguishable marks, the factor
(1+q^v)^2/(1-q^v), so one copy of v can be marked in 3 ways and two or
more copies in 4.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from . import qseries as qs
from .errors import ParameterError, TableTooShortError
from .params import SingularParams


def _require_covers(table, lo: int, hi: int) -> None:
    if hi > table.trunc_degree:
        raise TableTooShortError(
            f"table degree {table.trunc_degree} does not cover the interval [{lo}, {hi}]"
        )


@dataclass(frozen=True)
class CoeffTable:
    """Exact values C-bar_{k,i}(0..N) with their provenance tag."""

    params: SingularParams
    values: tuple[int, ...]
    source: str

    @property
    def trunc_degree(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def value(self, n: int) -> int:
        """Table value with the convention C-bar(n) = 0 for n < 0."""
        if n < 0:
            return 0
        if n > self.trunc_degree:
            raise TableTooShortError(
                f"table covers degrees 0..{self.trunc_degree}, asked for {n}"
            )
        return self.values[n]

    def parity(self, n: int) -> int:
        return self.value(n) & 1

    def window(self, lo: int, hi: int) -> int:
        """Parities of degrees lo..hi packed into one int, degree lo + j at bit j."""
        _require_covers(self, lo, hi)
        return int("0" + "".join(str(v & 1) for v in reversed(self.values[lo : hi + 1])), 2)

    def truncate(self, trunc_degree: int) -> "CoeffTable":
        if trunc_degree > self.trunc_degree:
            raise ParameterError(
                f"cannot extend table degree {self.trunc_degree} to {trunc_degree}"
            )
        return CoeffTable(self.params, self.values[: trunc_degree + 1], self.source)

    def series(self) -> qs.TruncSeriesZ:
        return qs.TruncSeriesZ(self.values)


@dataclass(frozen=True)
class ParityTable:
    """Parities of C-bar_{k,i}(0..N), packed one bit per degree."""

    params: SingularParams
    bits: int
    trunc_degree: int
    source: str

    def parity(self, n: int) -> int:
        if n < 0:
            return 0
        if n > self.trunc_degree:
            raise TableTooShortError(
                f"parity table covers degrees 0..{self.trunc_degree}, asked for {n}"
            )
        return (self.bits >> n) & 1

    def window(self, lo: int, hi: int) -> int:
        """Parities of degrees lo..hi packed into one int, degree lo + j at bit j."""
        _require_covers(self, lo, hi)
        return (self.bits >> lo) & ((1 << (hi - lo + 1)) - 1)

    def truncate(self, trunc_degree: int) -> "ParityTable":
        if trunc_degree > self.trunc_degree:
            raise ParameterError(
                f"cannot extend table degree {self.trunc_degree} to {trunc_degree}"
            )
        mask = (1 << (trunc_degree + 1)) - 1
        return ParityTable(self.params, self.bits & mask, trunc_degree, self.source)


# Most (k, i) pairs one route's store holds; past it the least recently
# used pair is dropped.
STORE_BUDGET = 32


class _TableStore:
    """The largest table built so far for each (k, i) of one route.

    A request at or below the held degree is the held table truncated.
    A larger one calls ``grow(params, n, held)``, with the held table or
    None, and the result replaces the held table. At most STORE_BUDGET
    pairs are held, one table each. One lock serializes every lookup
    and build, so concurrent callers never see a half-updated store.
    """

    def __init__(self, grow):
        self._grow = grow
        self._held = OrderedDict()  # params -> table, least recently used first
        self._lock = threading.Lock()

    def get(self, params: SingularParams, trunc_degree: int):
        if trunc_degree < 0:
            raise ParameterError("truncation degree must be nonnegative")
        with self._lock:
            held = self._held.get(params)
            if held is not None and trunc_degree <= held.trunc_degree:
                table = held.truncate(trunc_degree)
            else:
                table = self._grow(params, trunc_degree, held)
                self._held[params] = table
            self._held.move_to_end(params)
            if len(self._held) > STORE_BUDGET:
                self._held.popitem(last=False)
            return table

    def clear(self) -> None:
        with self._lock:
            self._held.clear()

    def __len__(self) -> int:
        return len(self._held)

    def __contains__(self, params) -> bool:
        return params in self._held


def _grow_product(params, trunc_degree, held) -> CoeffTable:
    k, i = params.k, params.i
    num = list(qs.eta_product(k, trunc_degree).coeffs)
    # At i = k/2 both calls apply the same factors: the formula lists the
    # overline factor twice and this route follows it literally.
    qs._mul_pochhammer_neg(num, i, k)
    qs._mul_pochhammer_neg(num, k - i, k)
    values = qs.div(qs.TruncSeriesZ(num), qs.eta_product(1, trunc_degree)).coeffs
    return CoeffTable(params, values, "product")


def _grow_theta(params, trunc_degree, held) -> CoeffTable:
    num = qs.theta_sum(params.k, params.i, trunc_degree)
    den = qs.eta_product(1, trunc_degree)
    if held is None:
        return CoeffTable(params, qs.div(num, den).coeffs, "theta")
    # The quotient is prefix-stable, so a held table is resumed, not redone.
    values = list(held.values)
    qs._div_extend(values, num.coeffs, den.coeffs)
    return CoeffTable(params, tuple(values), "theta")


def _grow_parity(params, trunc_degree, held) -> ParityTable:
    theta = qs.form_bits(params.k, params.i, trunc_degree)
    penta = qs.form_bits(3, 1, trunc_degree)
    return ParityTable(params, qs.div_f2(theta, penta).bits, trunc_degree, "theta")


# Product and parity tables are rebuilt at a larger degree: no caller
# extends them, and a parity table is cheap to rebuild. The product and
# theta stores stay apart, because their agreement is the cross-check.
_PRODUCT = _TableStore(_grow_product)
_THETA = _TableStore(_grow_theta)
_PARITY = _TableStore(_grow_parity)


def coefficients_product(params: SingularParams, trunc_degree: int) -> CoeffTable:
    """Table from the defining product quotient."""
    return _PRODUCT.get(params, trunc_degree)


def coefficients_theta(params: SingularParams, trunc_degree: int) -> CoeffTable:
    """Table from the theta-numerator quotient (the fast exact route)."""
    return _THETA.get(params, trunc_degree)


def parity_table(params: SingularParams, trunc_degree: int) -> ParityTable:
    """Mod-2 table via the packed GF(2) theta quotient.

    The theta numerator and (q;q) mod 2 are ``qseries.form_bits``, one
    bit per ``form_exponents`` value, with no integer series between.
    """
    return _PARITY.get(params, trunc_degree)


# Reduced eta-quotients, as (modulus multiple, numerator eta steps,
# denominator eta steps), steps in multiples of k except the literal
# "abs" marker for the absolute (q;q) factor. Derived by rewriting the
# two negative Pochhammer factors of the product form.
_SPECIAL_FAMILIES = {
    "3k": (3, (2, 3, 3), ("abs", 1, 6)),
    "4k": (4, (2, 2), ("abs", 1)),
    "6k": (6, (2, 2, 3, 12), ("abs", 1, 4, 6)),
}


def special_form(family: str, k: int, trunc_degree: int) -> CoeffTable:
    """Table for C-bar_{3k,k}, C-bar_{4k,k} or C-bar_{6k,k} from its eta-quotient."""
    if family not in _SPECIAL_FAMILIES:
        raise ParameterError(
            f"family must be one of {sorted(_SPECIAL_FAMILIES)}, got {family!r}"
        )
    if k < 1:
        raise ParameterError(f"scale k must be >= 1, got {k}")
    if trunc_degree < 0:
        raise ParameterError("truncation degree must be nonnegative")
    factor, nums, dens = _SPECIAL_FAMILIES[family]
    params = SingularParams(factor * k, k)
    acc = qs.TruncSeriesZ.constant(1, trunc_degree)
    for m in nums:
        acc = qs.mul(acc, qs.eta_product(m * k, trunc_degree))
    for m in dens:
        step = 1 if m == "abs" else m * k
        acc = qs.div(acc, qs.eta_product(step, trunc_degree))
    return CoeffTable(params, acc.coeffs, f"special{family}")


def clear_caches() -> None:
    """Drop every stored table (used by timing measurements)."""
    for store in (_PRODUCT, _THETA, _PARITY):
        store.clear()
