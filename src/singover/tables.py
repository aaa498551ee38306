"""Coefficient tables C-bar_{k,i}(0..N) from independent series pipelines.

A table is the series itself: the exact routes return the
``qseries.TruncSeriesZ`` they build, with C-bar(n) at ``coeffs[n]``,
and ``parity_table`` returns a ``qseries.TruncSeriesF2``, with the
parity of C-bar(n) at bit n of ``bits``. The caller knows which (k, i)
and which route it asked for, so a table carries neither.

Three routes to the same numbers:

* ``coefficients_product``: the defining infinite-product quotient
  (q^k;q^k) (-q^i;q^k) (-q^(k-i);q^k) / (q;q). It starts from the
  sparse pentagonal expansion of (q^k;q^k), multiplies in (-q^i;q^k)
  and (-q^(k-i);q^k) in place, each expanded by Euler's identity
  (-z;q)_inf = sum_n q^(n(n-1)/2) z^n / (q;q)_n: about sqrt(2N/k)
  terms of O(N) each, so O(N sqrt(N/k)) in all. It then divides by
  (q;q). It never forms a dense-by-dense product and never touches the
  theta numerator (Euler's identity is not Jacobi's triple product), so
  its agreement with the theta route is an independent cross-check.
* ``coefficients_theta``: Andrews' theta identity, a sparse two-sided
  theta numerator divided by (q;q). This is the default fast exact path.
* ``special_form``: the reduced eta-quotients available when (k, i) is
  (3k', k'), (4k', k') or (6k', k').

``parity_table`` is the mod-2 shortcut used by the witness searches: the
same theta quotient carried out entirely in packed GF(2) arithmetic. The
theta numerator mod 2 is built as bits straight from
``qseries.form_exponents``, and 1/(q;q) mod 2 is ``qseries.partition_bits``,
lifted from Jacobi's cube identity; no integer series and no division
come between.

The theta route keeps, per (k, i), the largest table built so far, so
a session's exact requests share one expansion. A smaller request is a
slice of it; a larger one resumes the forward substitution from the
held degree, and an absent table starts it from degree 0, so one
``qseries.div`` call serves both. The store holds at most STORE_BUDGET
pairs and is guarded by one lock, so tables can be requested from
several threads. Product and parity tables are built afresh on every
call, since requests seldom ask for one twice; the product route also
stays apart from the theta store, because their agreement is the
cross-check.

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

from . import qseries as qs
from .errors import ParameterError
from .params import SingularParams


# Most (k, i) pairs the theta store holds; past it the least recently
# used pair is dropped.
STORE_BUDGET = 32

# The largest theta table built so far per (k, i), least recently used
# first. One lock serializes every lookup and build, so concurrent
# callers never see a half-updated store.
_THETA = OrderedDict()
_THETA_LOCK = threading.Lock()


def coefficients_product(params: SingularParams, trunc_degree: int) -> qs.TruncSeriesZ:
    """Table from the defining product quotient."""
    k, i = params.k, params.i
    num = list(qs.eta_product(k, trunc_degree).coeffs)
    # At i = k/2 both calls apply the same factors: the formula lists the
    # overline factor twice and this route follows it literally.
    qs._mul_pochhammer_neg(num, i, k)
    qs._mul_pochhammer_neg(num, k - i, k)
    return qs.div(qs.TruncSeriesZ(num), qs.eta_product(1, trunc_degree))


def coefficients_theta(params: SingularParams, trunc_degree: int) -> qs.TruncSeriesZ:
    """Table from the theta-numerator quotient (the fast exact route).

    A request at or below the held degree is the held table truncated; a
    larger one resumes the division from the held table, or from degree
    0 when none is held, and holds the result.
    """
    with _THETA_LOCK:
        held = _THETA.get(params)
        if held is not None and trunc_degree <= held.trunc_degree:
            table = held.truncate(trunc_degree)
        else:
            table = _THETA[params] = qs.div(
                qs.theta_sum(params.k, params.i, trunc_degree),
                qs.eta_product(1, trunc_degree),
                held.coeffs if held is not None else (),
            )
        _THETA.move_to_end(params)
        if len(_THETA) > STORE_BUDGET:
            _THETA.popitem(last=False)
        return table


def parity_table(params: SingularParams, trunc_degree: int) -> qs.TruncSeriesF2:
    """Mod-2 table via the packed GF(2) theta quotient.

    The theta numerator mod 2 is ``qseries.form_bits``, one bit per
    ``form_exponents`` value; it is multiplied by 1/(q;q) mod 2 from
    ``qseries.partition_bits``, with no integer series between.
    """
    theta = qs.form_bits(params.k, params.i, trunc_degree)
    return qs.mul_f2(theta, qs.partition_bits(trunc_degree))


# Reduced eta-quotients over (q;q), as (modulus multiple, numerator eta
# steps, denominator eta steps), steps in multiples of k. Derived by
# rewriting the two negative Pochhammer factors of the product form.
_SPECIAL_FAMILIES = {
    "3k": (3, (2, 3, 3), (1, 6)),
    "4k": (4, (2, 2), (1,)),
    "6k": (6, (2, 2, 3, 12), (1, 4, 6)),
}


def special_form(family: str, k: int, trunc_degree: int) -> qs.TruncSeriesZ:
    """Table for C-bar_{3k,k}, C-bar_{4k,k} or C-bar_{6k,k} from its eta-quotient."""
    if family not in _SPECIAL_FAMILIES:
        raise ParameterError(
            f"family must be one of {sorted(_SPECIAL_FAMILIES)}, got {family!r}"
        )
    if k < 1:
        raise ParameterError(f"scale k must be >= 1, got {k}")
    _, nums, dens = _SPECIAL_FAMILIES[family]
    # the first step refuses a negative degree
    acc = qs.TruncSeriesZ.constant(1, trunc_degree)
    for m in nums:
        acc = qs.mul(acc, qs.eta_product(m * k, trunc_degree))
    acc = qs.div(acc, qs.eta_product(1, trunc_degree))
    for m in dens:
        acc = qs.div(acc, qs.eta_product(m * k, trunc_degree))
    return acc


def clear_caches() -> None:
    """Drop every stored theta table (used by timing measurements)."""
    with _THETA_LOCK:
        _THETA.clear()
