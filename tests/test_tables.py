"""Coefficient tables: pipeline agreement, special forms, oracle equality."""

import pytest

from singover.cli import CAP_EXACT
from singover.errors import ParameterError, TableTooShortError
from singover.oracle import enumerate_overpartitions
from singover.params import SingularParams
from singover.qseries import TruncSeriesZ, div, eta_product, mul, pochhammer_neg
from singover.tables import (
    CoeffTable,
    coefficients_product,
    coefficients_theta,
    oracle_table,
    parity_table,
    special_form,
)

SAMPLE_PARAMS = [(3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (6, 2), (7, 3), (9, 4)]
ADMISSIBLE_PARAMS = [(k, i) for k in range(3, 17) for i in range(1, k // 2 + 1)]


@pytest.mark.parametrize("k,i", ADMISSIBLE_PARAMS)
def test_pipelines_agree(k, i):
    params = SingularParams(k, i)
    assert (
        coefficients_product(params, 300).values
        == coefficients_theta(params, 300).values
    )


def test_pipelines_agree_at_exact_cap():
    params = SingularParams(5, 1)
    assert (
        coefficients_product(params, CAP_EXACT).values
        == coefficients_theta(params, CAP_EXACT).values
    )


@pytest.mark.parametrize("k,i", SAMPLE_PARAMS)
def test_table_invariants(k, i):
    table = coefficients_theta(SingularParams(k, i), 80)
    assert table[0] == 1
    assert all(v >= 0 for v in table.values)


def test_worked_value_from_product():
    assert coefficients_product(SingularParams(3, 1), 4)[4] == 10


def test_six_two_prefix():
    assert coefficients_theta(SingularParams(6, 2), 3).values == (1, 1, 3, 4)


@pytest.mark.parametrize("k,i", [(3, 1), (5, 1), (6, 2), (7, 3), (9, 4)])
def test_tables_match_enumeration(k, i):
    params = SingularParams(k, i)
    table = coefficients_theta(params, 25)
    for n in range(26):
        assert table[n] == enumerate_overpartitions(params, n).count


def test_oracle_table_source():
    t = oracle_table(SingularParams(5, 1), 8)
    assert t.source == "oracle"
    assert t.values == coefficients_theta(SingularParams(5, 1), 8).values


@pytest.mark.parametrize("family,scale", [(f, s) for f in ("3k", "4k", "6k") for s in (1, 2, 3)])
def test_special_forms_match_general_product(family, scale):
    table = special_form(family, scale, 150)
    general = coefficients_product(table.params, 150)
    assert table.values == general.values
    assert table.source == f"special{family}"


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
    assert first.values is second.values


def test_parity_table_matches_exact_parities():
    params = SingularParams(5, 2)
    exact = coefficients_theta(params, 300)
    packed = parity_table(params, 300)
    assert all(packed.parity(n) == exact.parity(n) for n in range(301))


def test_value_conventions():
    table = coefficients_theta(SingularParams(3, 1), 10)
    assert table.value(-3) == 0
    assert table.parity(-3) == 0
    with pytest.raises(TableTooShortError):
        table.value(11)
    with pytest.raises(TableTooShortError):
        parity_table(SingularParams(3, 1), 10).parity(11)


def test_truncate_matches_direct_computation():
    params = SingularParams(5, 1)
    big = coefficients_theta(params, 90)
    assert big.truncate(40).values == coefficients_theta(params, 40).values
    with pytest.raises(ParameterError):
        big.truncate(91)


def test_half_k_residue_case():
    # i = k/2 makes +i and -i the same residue, so the product formula
    # lists the overline factor twice. Taken literally (as implemented)
    # both pipelines agree with each other, match the one-mark
    # enumeration below n = k/2, and exceed it from n = k/2 on, where
    # the duplicated factor adds a second independent mark.
    for k in (4, 6, 8):
        params = SingularParams(k, k // 2)
        prod = coefficients_product(params, 12)
        assert prod.values == coefficients_theta(params, 12).values
        counts = [enumerate_overpartitions(params, n).count for n in range(13)]
        assert list(prod.values[: k // 2]) == counts[: k // 2]
        assert prod[k // 2] == counts[k // 2] + 1


def test_coeff_table_series_roundtrip():
    table = coefficients_theta(SingularParams(3, 1), 12)
    assert isinstance(table.series(), TruncSeriesZ)
    assert table.series().coeffs == table.values
