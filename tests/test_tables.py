"""Coefficient tables: pipeline agreement, special forms, oracle equality."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singover import tables
from singover.cli import CAP_EXACT
from singover.errors import ParameterError
from singover.oracle import dp_table, enumerate_overpartitions
from singover.params import SingularParams
from singover.qseries import (
    TruncSeriesF2,
    TruncSeriesZ,
    div,
    eta_product,
    form_bits,
    mul,
    partition_bits,
    pochhammer_neg,
    reduce_mod2,
    theta_sum,
)
from singover.tables import (
    STORE_BUDGET,
    clear_caches,
    coefficients_product,
    coefficients_theta,
    parity_table,
    special_form,
)

SAMPLE_PARAMS = [(3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (6, 2), (7, 3), (9, 4)]
ADMISSIBLE_PARAMS = [(k, i) for k in range(3, 17) for i in range(1, k // 2 + 1)]


@pytest.mark.parametrize("k,i", ADMISSIBLE_PARAMS)
def test_pipelines_agree(k, i):
    params = SingularParams(k, i)
    assert (
        coefficients_product(params, 300).coeffs
        == coefficients_theta(params, 300).coeffs
    )


def test_pipelines_agree_at_exact_cap():
    # (4, 2) is the i = k/2 case, where the product lists one factor twice
    for k, i in [(3, 1), (4, 2), (5, 1), (13, 6)]:
        params = SingularParams(k, i)
        assert (
            coefficients_product(params, CAP_EXACT).coeffs
            == coefficients_theta(params, CAP_EXACT).coeffs
        ), (k, i)


@pytest.mark.parametrize("k,i", SAMPLE_PARAMS)
def test_table_invariants(k, i):
    table = coefficients_theta(SingularParams(k, i), 80)
    assert table.coeffs[0] == 1
    assert all(v >= 0 for v in table.coeffs)


def test_worked_value_from_product():
    assert coefficients_product(SingularParams(3, 1), 4).coeffs[4] == 10


def test_six_two_prefix():
    assert coefficients_theta(SingularParams(6, 2), 3).coeffs == (1, 1, 3, 4)


@pytest.mark.parametrize("k,i", [(3, 1), (5, 1), (6, 2), (7, 3), (9, 4)])
def test_tables_match_enumeration(k, i):
    params = SingularParams(k, i)
    table = coefficients_theta(params, 25)
    for n in range(26):
        assert table.coeffs[n] == enumerate_overpartitions(params, n)


def test_oracle_table_source():
    # a table built by enumeration alone, n by n
    params = SingularParams(5, 1)
    t = TruncSeriesZ(enumerate_overpartitions(params, n) for n in range(9))
    assert t.trunc_degree == 8
    assert t == coefficients_theta(SingularParams(5, 1), 8)


@pytest.mark.parametrize("family,scale", [(f, s) for f in ("3k", "4k", "6k") for s in (1, 2, 3)])
def test_special_forms_match_general_product(family, scale):
    table = special_form(family, scale, 150)
    factor = {"3k": 3, "4k": 4, "6k": 6}[family]
    general = coefficients_product(SingularParams(factor * scale, scale), 150)
    assert isinstance(table, TruncSeriesZ)
    assert table == general


def test_special_form_bad_family():
    with pytest.raises(ParameterError):
        special_form("5k", 1, 10)


def test_pochhammer_pair_identities():
    # the rewrites behind the reduced 4k and 3k quotients, checked as
    # standalone series identities
    n, k = 200, 2
    lhs = mul(
        pochhammer_neg(k, 4 * k, n), pochhammer_neg(3 * k, 4 * k, n)
    )
    rhs = div(
        div(
            mul(eta_product(2 * k, n), eta_product(2 * k, n)),
            eta_product(k, n),
        ),
        eta_product(4 * k, n),
    )
    assert lhs == rhs
    lhs = mul(
        pochhammer_neg(k, 3 * k, n), pochhammer_neg(2 * k, 3 * k, n)
    )
    rhs = div(
        div(
            mul(eta_product(2 * k, n), eta_product(3 * k, n)),
            eta_product(k, n),
        ),
        eta_product(6 * k, n),
    )
    assert lhs == rhs


def test_memoization_reuses_expansions():
    params = SingularParams(7, 1)
    first = coefficients_theta(params, 64)
    second = coefficients_theta(params, 64)
    assert first.coeffs is second.coeffs


def test_parity_table_matches_exact_parities():
    params = SingularParams(5, 2)
    exact = coefficients_theta(params, 300)
    packed = parity_table(params, 300)
    assert isinstance(packed, TruncSeriesF2) and packed.trunc_degree == 300
    assert all((packed.bits >> n) & 1 == exact.coeffs[n] & 1 for n in range(301))


def test_truncate_matches_direct_computation():
    params = SingularParams(5, 1)
    big = coefficients_theta(params, 90)
    assert big.truncate(40) == coefficients_theta(params, 40)
    with pytest.raises(ParameterError):
        big.truncate(91)


def test_half_k_residue_case():
    # i = k/2 makes +i and -i the same residue, so the product formula
    # lists the overline factor twice. Both pipelines and the enumeration
    # follow it: a part k/2 (mod k) carries two distinguishable marks,
    # so a single part k/2 counts 3 ways, where one mark would give 2.
    for k in (4, 6, 8):
        params = SingularParams(k, k // 2)
        prod = coefficients_product(params, 12)
        assert prod == coefficients_theta(params, 12)
        counts = [enumerate_overpartitions(params, n) for n in range(13)]
        assert list(prod.coeffs) == counts
        # n = k/2: p(k/2) - 1 partitions into smaller, unmarked parts,
        # and the part k/2 alone in 3 ways
        assert prod.coeffs[k // 2] == {4: 2, 6: 3, 8: 5}[k] - 1 + 3


# --- the theta store, and the routes built afresh -----------------------------

ROUTES = {
    "theta": coefficients_theta,
    "product": coefficients_product,
    "parity": parity_table,
}


def _fresh(route, params, n):
    """The table a request must return, built from the series layer alone."""
    k, i = params.k, params.i
    if route == "product":
        num = mul(mul(eta_product(k, n), pochhammer_neg(i, k, n)), pochhammer_neg(k - i, k, n))
        return div(num, eta_product(1, n)).coeffs
    exact = div(theta_sum(k, i, n), eta_product(1, n)).coeffs
    if route == "theta":
        return exact
    return reduce_mod2(TruncSeriesZ(exact)).bits


def _served(route, params, n):
    table = ROUTES[route](params, n)
    assert table.trunc_degree == n
    return table.bits if route == "parity" else table.coeffs


@pytest.mark.parametrize("route", sorted(ROUTES))
@given(st.data())
@settings(deadline=None, max_examples=40)
def test_store_serves_fresh_tables(route, data):
    # request sequences over two or three pairs, degrees going up, down
    # and repeating, with the theta store sometimes cleared in between
    pairs = data.draw(
        st.lists(st.sampled_from(ADMISSIBLE_PARAMS), min_size=1, max_size=3, unique=True)
    )
    requests = data.draw(
        st.lists(
            st.tuples(st.sampled_from(pairs), st.integers(0, 160), st.booleans()),
            min_size=1,
            max_size=10,
        )
    )
    expected = [_fresh(route, SingularParams(*ki), n) for ki, n, _ in requests]
    clear_caches()
    for (ki, n, clear_first), want in zip(requests, expected):
        if clear_first:
            clear_caches()
        assert _served(route, SingularParams(*ki), n) == want


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_store_truncates_and_extends_at_half_k(route):
    params = SingularParams(8, 4)
    expected = {n: _fresh(route, params, n) for n in (0, 1, 120, 300, 301)}
    clear_caches()
    for n in (300, 120, 301, 1, 0, 301):
        assert _served(route, params, n) == expected[n]


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_refuses_a_negative_degree(route):
    with pytest.raises(ParameterError):
        ROUTES[route](SingularParams(5, 1), -1)


def _theta(n, held=None):
    # a request with no table in the store, or with one held at degree held
    clear_caches()
    if held is not None:
        coefficients_theta(SingularParams(5, 1), held)
    return coefficients_theta(SingularParams(5, 1), n)


# every entry point that takes a truncation degree, the three that once
# answered a negative one with a table of the wrong degree among them
DEGREE_BUILDERS = {
    "TruncSeriesZ.truncate": lambda n: TruncSeriesZ(range(1, 8)).truncate(n),
    "TruncSeriesZ.constant": lambda n: TruncSeriesZ.constant(1, n),
    "TruncSeriesF2": lambda n: TruncSeriesF2(0, n),
    "eta_product": lambda n: eta_product(1, n),
    "pochhammer_neg": lambda n: pochhammer_neg(1, 2, n),
    "theta_sum": lambda n: theta_sum(5, 1, n),
    "form_bits": lambda n: form_bits(5, 1, n),
    "partition_bits": partition_bits,
    "coefficients_theta": _theta,
    "coefficients_theta/held": lambda n: _theta(n, held=40),
    "coefficients_product": lambda n: coefficients_product(SingularParams(5, 1), n),
    "parity_table": lambda n: parity_table(SingularParams(5, 1), n),
    "special_form": lambda n: special_form("3k", 1, n),
    "dp_table": lambda n: dp_table(SingularParams(5, 1), n),
}


@pytest.mark.parametrize("n", [-1, -3])
@pytest.mark.parametrize("builder", sorted(DEGREE_BUILDERS))
def test_every_degree_builder_refuses_a_negative_degree(builder, n):
    with pytest.raises(ParameterError) as caught:
        DEGREE_BUILDERS[builder](n)
    assert str(caught.value) == "truncation degree must be nonnegative"


def test_store_evicts_least_recently_used():
    pairs = [SingularParams(*ki) for ki in ADMISSIBLE_PARAMS[: STORE_BUDGET + 2]]
    clear_caches()
    for params in pairs[:STORE_BUDGET]:
        coefficients_theta(params, 10)
    coefficients_theta(pairs[0], 5)  # a use of the oldest pair makes pairs[1] the oldest
    coefficients_theta(pairs[STORE_BUDGET], 10)
    held = tables._THETA
    assert len(held) == STORE_BUDGET
    assert pairs[0] in held and pairs[1] not in held
    coefficients_theta(pairs[STORE_BUDGET + 1], 10)
    assert len(held) == STORE_BUDGET
    assert pairs[2] not in held and pairs[STORE_BUDGET + 1] in held


def test_clear_caches_empties_every_store():
    clear_caches()
    for k, i in ADMISSIBLE_PARAMS[:5]:
        coefficients_theta(SingularParams(k, i), 40)
    assert len(tables._THETA) == 5
    clear_caches()
    assert not tables._THETA


def test_theta_store_extends_without_rebuilding_the_prefix(monkeypatch):
    # an extension divides only the new degrees: the prefix is kept
    params = SingularParams(7, 2)
    clear_caches()
    low = coefficients_theta(params, 200)
    calls = []
    real = tables.qs._div_extend
    monkeypatch.setattr(
        tables.qs, "_div_extend", lambda r, s, t: calls.append(len(r)) or real(r, s, t)
    )
    high = coefficients_theta(params, 500)
    assert calls == [201]
    assert high.coeffs[:201] == low.coeffs
    assert high.coeffs == _fresh("theta", params, 500)


@pytest.mark.parametrize("k,i", [(5, 1), (8, 4)])
def test_a_parity_build_calls_one_inverse_and_no_integer_series(monkeypatch, k, i):
    # the layers a traced parity request reports: one 1/(q;q) mod 2 from
    # the Jacobi lift, no Newton inverse, and no integer theta numerator,
    # eta product or reduction mod 2
    layers = ("partition_bits", "inv_f2", "theta_sum", "eta_product", "reduce_mod2")
    calls = dict.fromkeys(layers, 0)
    for name in layers:
        real = getattr(tables.qs, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(tables.qs, name, counted)
    clear_caches()
    parity_table(SingularParams(k, i), 3000)
    assert calls == {
        "partition_bits": 1, "inv_f2": 0, "theta_sum": 0, "eta_product": 0, "reduce_mod2": 0
    }


def test_store_under_concurrent_requests():
    # more threads than cores and more pairs than the budget, so that
    # builds, truncations and evictions of the theta store interleave
    # with product and parity builds; a lost or torn update would raise
    # or serve a wrong table
    pairs = [SingularParams(*ki) for ki in ADMISSIBLE_PARAMS[: STORE_BUDGET + 4]]
    expected = {(p, route): _fresh(route, p, 60) for p in pairs for route in ROUTES}
    clear_caches()
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(600):
                route, params = rng.choice(sorted(ROUTES)), rng.choice(pairs)
                n = rng.randint(0, 60)
                got = _served(route, params, n)
                want = expected[params, route]
                if route == "parity":
                    want &= (1 << (n + 1)) - 1
                else:
                    want = want[: n + 1]
                if got != want:
                    errors.append((route, params, n))
        except Exception as exc:  # reported below; a thread cannot fail the test
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(tables._THETA) <= STORE_BUDGET
