"""Acceptance gate: every release criterion at its stated scale.

Each test prints one [acceptance] PASS/FAIL line (visible with -s).
Exact equalities throughout; the only tolerances are the two wall-clock
budgets of the performance criterion.
"""

import time

from singover import checks
from singover.distribution import parity_census
from singover.oracle import count_by_backtracking, dp_table, enumerate_overpartitions
from singover.params import SingularParams
from singover.qseries import reduce_mod2
from singover.tables import (
    clear_caches,
    coefficients_product,
    coefficients_theta,
    parity_table,
)

NINE_PARAMS = [
    (3, 1), (4, 1), (5, 1), (5, 2), (6, 2), (7, 1), (7, 3), (11, 1), (13, 1),
]
EQUIV_DEGREE = 2000
PRIMES_EXCLUSION = (5, 7, 11, 13, 17, 19)
PRIMES_INTERVALS = (5, 7, 11)


def report(tag, ok, detail=""):
    line = f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def failed(results):
    """Names of the checks in a suite's results that did not pass."""
    return [c["name"] for c in results if not c["passed"]]


def test_c01_worked_example():
    start = time.perf_counter()
    params = SingularParams(3, 1)
    values = {
        "product": coefficients_product(params, 4).coeffs[4],
        "theta": coefficients_theta(params, 4).coeffs[4],
        "oracle": enumerate_overpartitions(params, 4),
    }
    elapsed = time.perf_counter() - start
    ok = set(values.values()) == {10} and elapsed < 1.0
    report("C01 worked-example C(3,1;4)=10 three ways", ok, f"{elapsed:.3f}s {values}")


def test_c02_pipeline_equivalence():
    bad = []
    for k, i in NINE_PARAMS:
        bad += failed(checks.pipelines(k=k, i=i, n_max=EQUIV_DEGREE))
    report(
        f"C02 product==theta for {len(NINE_PARAMS)} params at N={EQUIV_DEGREE}",
        not bad,
        f"failed={bad}",
    )


def test_c03_special_form_equivalence():
    bad = []
    for scale in (1, 2, 3):
        bad += failed(checks.special_forms(k=scale, n_max=1000))
    report("C03 special eta-quotients == general product at N=1000", not bad, f"{bad}")


def test_c04_oracle_equivalence():
    bad = []
    for k, i in NINE_PARAMS:
        bad += failed(checks.oracle(k=k, i=i, n_max=30))
        # the oracle's DP table against backtracking through every partition
        params = SingularParams(k, i)
        if dp_table(params, 30) != [count_by_backtracking(params, n) for n in range(31)]:
            bad.append(f"dp-vs-backtracking-k{k}-i{i}")
    report("C04 series values == DP == enumeration for n<=30", not bad, f"{bad[:5]}")


def test_c05_cited_parity_facts():
    n = EQUIV_DEGREE
    bad = failed(checks.parity_facts(n_max=n))
    # the facts are read from packed parity tables; cross-check those
    # against the exact tables
    packed_ok = all(
        parity_table(SingularParams(k, i), n).bits
        == reduce_mod2(coefficients_theta(SingularParams(k, i), n)).bits
        for k, i in ((3, 1), (4, 1), (6, 2), (4, 2))
    )
    report(
        f"C05 parity facts (3,1)/(4,1)/(6,2)/(4,2) to N={n}",
        not bad and packed_ok,
        f"failed={bad} packed==exact mod 2: {packed_ok}",
    )


def test_c06_convolution_identity():
    bad = []
    for k, i in NINE_PARAMS:
        bad += failed(checks.lemma1(k=k, i=i, n_max=1000))
    report("C06 pentagonal convolution parity for n<=1000", not bad, f"{bad[:5]}")


def test_c07_form_exclusions():
    start = time.perf_counter()
    bad = []
    for p in PRIMES_EXCLUSION:
        bad += failed(checks.exclusions(p=p, ell_max=10_000))
    elapsed = time.perf_counter() - start
    report(
        "C07 form exclusions for p in {5..19}, l<=10^4",
        not bad and elapsed < 30.0,
        f"{elapsed:.2f}s {bad}",
    )


def test_c08_interval_witnesses():
    top = 80 * (3 * 80 + 1) // 2  # covers every interval for l <= 80
    bad = []
    for p in PRIMES_INTERVALS:
        even, odd = checks.intervals(p=p, ell_max=80)
        bad += failed([even, odd])
        # every l has a witness, and each has its parity in the exact table
        exact = coefficients_theta(SingularParams(p, 1), top).coeffs
        for check, start, want, interval in (
            (even, 4, 0, lambda l: (l, l * (3 * l + 1) // 2)),
            (odd, 2, 1, lambda l: (2 * l - 1, l * (3 * l - 1) // 2)),
        ):
            witnesses = check["detail"]["witnesses"]
            if [w["ell"] for w in witnesses] != list(range(start, 81, 3)):
                bad.append((check["name"], "not every l"))
            for w in witnesses:
                lo, hi = interval(w["ell"])
                if not (lo <= w["n"] <= hi and exact[w["n"]] % 2 == want):
                    bad.append((p, w["ell"], w["n"]))
    report("C08 interval witnesses for p in {5,7,11}, l<=80", not bad, f"{bad[:5]}")


def test_c09_distribution():
    ok = True
    details = []
    for x in (100, 1000, 10_000):
        # each flag also covers the sequence steps and interval witnesses
        rep = parity_census(5, x)
        ok &= rep["even_dominates"] and rep["odd_dominates"]
        ok &= rep["even_count"] + rep["odd_count"] == x
        details.append(
            f"X={x}: even {rep['even_count']}>={rep['even_lower_bound']}, "
            f"odd {rep['odd_count']}>={rep['odd_lower_bound']}"
        )
    report("C09 census dominance and sequence invariants", ok, "; ".join(details))


def test_c10_performance():
    clear_caches()
    params = SingularParams(5, 1)

    start = time.perf_counter()
    packed = parity_table(params, 100_000)
    parity_time = time.perf_counter() - start

    # the parity cap; parity tables are built on every call
    start = time.perf_counter()
    at_cap = parity_table(params, checks.CAP_PARITY)
    cap_time = time.perf_counter() - start

    start = time.perf_counter()
    exact = coefficients_theta(params, 10_000)
    exact_time = time.perf_counter() - start

    # product tables are built on every call too
    start = time.perf_counter()
    product = coefficients_product(params, 10_000)
    product_time = time.perf_counter() - start

    mask = (1 << 10_001) - 1
    agree = (packed.bits & mask) == reduce_mod2(exact).bits
    agree &= (at_cap.bits & ((1 << 100_001) - 1)) == packed.bits
    agree &= product.coeffs == exact.coeffs
    ok = parity_time <= 10.0 and cap_time <= 10.0
    ok = ok and exact_time <= 60.0 and product_time <= 60.0
    ok = ok and agree and exact.coeffs[0] == 1
    report(
        "C10 performance budgets",
        ok,
        f"parity 10^5 in {parity_time:.2f}s (<=10s), "
        f"parity 10^6 in {cap_time:.2f}s (<=10s), "
        f"exact 10^4 in {exact_time:.2f}s (<=60s), "
        f"product 10^4 in {product_time:.2f}s (<=60s), paths agree={agree}",
    )
