"""The verification checks, one function per suite.

Each suite function returns a list of ``{"name", "passed", "detail"}``
dicts, and ``detail`` carries a total count beside each list of the
first few cases. The command line's ``verify`` renders them and the
acceptance tests run them at their own scales.

``SUITES`` is the one registry. For each suite name it holds the
function; the options the suite reads, which are the fields of a
report's ``config`` block, and those of them it can do without; and
the size argument with its least and greatest value. Below the least
value a check would cover no case; above the greatest a table would
pass its degree cap.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import parity, tables
from . import qseries as qs
from .errors import ParameterError
from .oracle import MAX_CAP, dp_table
from .params import SingularParams

# Degree caps: exact big-integer tables and packed-parity tables.
CAP_EXACT = 10_000
CAP_PARITY = 1_000_000
# The exclusion scan costs one integer root per l, about 1 s per 10^6.
CAP_EXCLUSIONS = 1_000_000
# The largest l whose even interval [l, l(3l+1)/2] fits in a parity table.
CAP_INTERVALS = (math.isqrt(24 * CAP_PARITY + 1) - 1) // 6


def _record(name: str, bad: list, key="mismatches", count_key="mismatch_count") -> dict:
    """A check that passes when bad is empty; detail lists its first ten and the total."""
    return {"name": name, "passed": not bad, "detail": {key: bad[:10], count_key: len(bad)}}


def _require_some_degree(n_max: int) -> None:
    """Refuse an n_max below 1, for which a check would cover no degree."""
    if n_max < 1:
        raise ParameterError(f"n_max must be >= 1, got {n_max}")


def _differing(a, b) -> list[int]:
    """The degrees at which two equally long coefficient sequences differ."""
    return [n for n, (x, y) in enumerate(zip(a, b)) if x != y]


def oracle(k: int, i: int, n_max: int) -> list[dict]:
    params = SingularParams(k, i)
    table = tables.coefficients_theta(params, n_max)
    bad = _differing(table.coeffs, dp_table(params, n_max))
    return [_record(f"series-vs-enumeration-k{k}-i{i}-n{n_max}", bad)]


def pipelines(k: int, i: int, n_max: int) -> list[dict]:
    params = SingularParams(k, i)
    prod = tables.coefficients_product(params, n_max)
    theta = tables.coefficients_theta(params, n_max)
    bad = _differing(prod.coeffs, theta.coeffs)
    return [_record(f"product-vs-theta-k{k}-i{i}-n{n_max}", bad)]


def special_forms(k: int = 1, *, n_max: int) -> list[dict]:
    """The three eta-quotients of scale k against the general product."""
    results = []
    for family, (factor, _, _) in tables._SPECIAL_FAMILIES.items():
        special = tables.special_form(family, k, n_max)
        general = tables.coefficients_product(SingularParams(factor * k, k), n_max)
        bad = _differing(special.coeffs, general.coeffs)
        results.append(_record(f"special-{family}-scale{k}-n{n_max}", bad))
    return results


def parity_facts(n_max: int) -> list[dict]:
    """Four parity facts, read off whole bit words of the parity tables.

    Each list of bad degrees is the ascending set bits of a masked word,
    restricted to degrees 1..n_max: C-bar_{3,1} odd anywhere,
    C-bar_{4,1} odd at an odd degree, and C-bar_{6,2} differing from
    (q;q) mod 2, which is odd exactly at the generalized pentagonals.
    The fourth, on degrees 0..n_max, is C-bar_{4,2} differing from p(n)
    mod 2, which holds because theta_{k,k/2} = 1 (mod 2). Its p(n) mod 2
    is ``qseries.inv_f2`` of Euler's pentagonal bits, while every parity
    table takes 1/(q;q) from Jacobi's cube identity. Both run the same
    ``qseries._lift``, so the check's independence lies in the two
    identities, not in the kernel. An n_max below 1, which would leave
    the first three facts no degree, is refused.
    """
    _require_some_degree(n_max)
    t31 = tables.parity_table(SingularParams(3, 1), n_max)
    t41 = tables.parity_table(SingularParams(4, 1), n_max)
    t62 = tables.parity_table(SingularParams(6, 2), n_max)
    t42 = tables.parity_table(SingularParams(4, 2), n_max)
    degrees = ((1 << (n_max + 1)) - 1) ^ 1  # degrees 1..n_max
    odd_degrees = int.from_bytes(b"\xaa" * (n_max // 8 + 1), "little") & degrees
    pents = qs.form_bits(3, 1, n_max)
    bad31 = qs._set_bits(t31.bits & degrees)
    bad41 = qs._set_bits(t41.bits & odd_degrees)
    bad62 = qs._set_bits((t62.bits ^ pents.bits) & degrees)
    bad42 = qs._set_bits(t42.bits ^ qs.inv_f2(pents).bits)
    return [
        _record(f"c31-always-even-n{n_max}", bad31, "odd_at", "failure_count"),
        _record(f"c41-odd-arguments-even-n{n_max}", bad41, "odd_at", "failure_count"),
        _record(f"c62-odd-iff-pentagonal-n{n_max}", bad62, "mismatch_at"),
        _record(f"c42-parity-of-partitions-n{n_max}", bad42, "mismatch_at"),
    ]


def lemma1(k: int, i: int, n_max: int) -> list[dict]:
    """Lemma 1's convolution for C-bar_{k,i}: wholesale on degrees
    0..n_max and degree by degree on 1..n_max, so n_max >= 1."""
    params = SingularParams(k, i)
    _require_some_degree(n_max)
    table = tables.coefficients_theta(params, n_max)
    wholesale = parity.convolution_mismatches(params, table)
    bad = [n for n in wholesale if n]
    return [
        {
            "name": f"convolution-wholesale-k{k}-i{i}-n{n_max}",
            "passed": not wholesale,
            "detail": {
                "first_mismatch": wholesale[0] if wholesale else None,
                "mismatch_count": len(wholesale),
            },
        },
        _record(f"convolution-per-n-k{k}-i{i}-n{n_max}", bad, "failures", "failure_count"),
    ]


def exclusions(p: int, ell_max: int) -> list[dict]:
    return [
        _record(
            f"{variant}-exclusion-p{p}-ell{ell_max}",
            parity.exclusion_counterexamples(p, ell_max, variant),
            "counterexamples",
            "counterexample_count",
        )
        for variant in ("even", "odd")
    ]


def intervals(p: int, ell_max: int) -> list[dict]:
    """The even and odd interval witnesses of C-bar_{p,1} for l <= ell_max.

    An l whose target l(3l+s) lies on the form for i = 1 is outside the
    guarantee: it is skipped, not failed. For a prime p the exclusions
    leave no such l. A check that checked no l does not pass.

    The proof's degrees begin at each interval's low end, so the
    witnesses lie just past it. The parity table therefore starts at
    twice the largest low end, 2(2 ell_max - 1), not at the top
    ell_max(3 ell_max + 1)/2. Each variant's l are read off the table as
    one run of ``parity.find_in_intervals``. An interval that runs past
    the table with no witness before its end, for which the finder
    returns None, is asked again of the deepest table built so far, and
    of tables of doubled degree up to the top. Parity tables are
    prefix-stable, so a deeper table moves no witness found before.
    An interval fails only once the table covers it and the finder
    still returns None: that contradicts the proven statement, and the
    failure record says so.
    """
    parity._require_prime(p)
    params = SingularParams(p, 1)
    top = ell_max * (3 * ell_max + 1) // 2
    # 2(2 l - 1) <= l(3l + 1)/2, as (3l - 4)(l - 1) >= 0 for integer l; an
    # ell_max below 1 reads no interval, and its table is degree 0
    table = tables.parity_table(params, max(2 * (2 * ell_max - 1), 0))
    results = []
    for variant in ("even", "odd"):
        found, failures, skipped = [], [], []
        run = range(parity.FIRST_ELL[variant], ell_max + 1, 3)
        read = table.trunc_degree  # the degree the whole run is read at
        for ell, lo, hi, n in parity.find_in_intervals(variant, run, table):
            if parity.on_form(p, 1, 2 * hi):
                skipped.append(ell)
                continue
            # a None read off a table that ends before hi is asked again
            at = read
            while n is None and at < hi:
                if table.trunc_degree == at:
                    table = tables.parity_table(params, min(2 * at, top))
                at = table.trunc_degree
                ((*_, n),) = parity.find_in_intervals(variant, (ell,), table)
            if n is None:
                failures.append(
                    {
                        "ell": ell,
                        "error": f"no {variant} value of C-bar_{{{p},1}} in [{lo}, {hi}] "
                        f"(l = {ell}); this contradicts a proven statement",
                    }
                )
            else:
                found.append({"n": n, "parity": variant, "lo": lo, "hi": hi, "ell": ell})
        results.append(
            {
                "name": f"{variant}-witness-p{p}-ell{ell_max}",
                "passed": bool(found) and not failures,
                "detail": {
                    "witnesses": found,
                    "failures": failures,
                    "failure_count": len(failures),
                    "skipped": skipped[:10],
                    "skipped_count": len(skipped),
                },
            }
        )
    return results


def all_suites() -> list[dict]:
    """Every suite at fixed sizes small enough for a quick run."""
    results = []
    for k, i in ((3, 1), (4, 1), (5, 1), (5, 2), (6, 2)):
        results += pipelines(k=k, i=i, n_max=200)
        results += lemma1(k=k, i=i, n_max=200)
        results += oracle(k=k, i=i, n_max=20)
    results += special_forms(k=1, n_max=200)
    results += parity_facts(n_max=400)
    results += exclusions(p=5, ell_max=500)
    results += intervals(p=5, ell_max=13)
    return results


# run: the suite function; options: the arguments it is called with, in
# config order; size: (argument, least, greatest), or None; optional:
# the options whose argument has a default
Suite = namedtuple("Suite", "run options size optional", defaults=((),))

# the even checks start at their first l, 4
_FIRST_ELL = parity.FIRST_ELL["even"]

SUITES = {
    "oracle": Suite(oracle, ("k", "i", "n_max"), ("n_max", 1, MAX_CAP)),
    "pipelines": Suite(pipelines, ("k", "i", "n_max"), ("n_max", 0, CAP_EXACT)),
    "special-forms": Suite(special_forms, ("k", "n_max"), ("n_max", 0, CAP_EXACT), ("k",)),
    "parity-facts": Suite(parity_facts, ("n_max",), ("n_max", 1, CAP_PARITY)),
    "lemma1": Suite(lemma1, ("k", "i", "n_max"), ("n_max", 1, CAP_EXACT)),
    "exclusions": Suite(exclusions, ("p", "ell_max"), ("ell_max", _FIRST_ELL, CAP_EXCLUSIONS)),
    "intervals": Suite(intervals, ("p", "ell_max"), ("ell_max", _FIRST_ELL, CAP_INTERVALS)),
    "all": Suite(all_suites, (), None),
}
