"""The combinatorial oracle: worked examples, the DP table and its
backtracking cross-check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singover import checks
from singover.errors import ParameterError
from singover.oracle import (
    count_by_backtracking,
    count_by_dp,
    dp_table,
    enumerate_overpartitions,
)
from singover.params import SingularParams
from singover.tables import coefficients_theta

ADMISSIBLE_PARAMS = [(k, i) for k in range(3, 17) for i in range(1, k // 2 + 1)]


def test_worked_example():
    # the ten overpartitions of 4 for (3, 1): 4, 4bar, 2+2, 2bar+2,
    # 2+1+1, 2bar+1+1, 2+1bar+1, 2bar+1bar+1, 1+1+1+1, 1bar+1+1+1
    assert enumerate_overpartitions(SingularParams(3, 1), 4) == 10


def test_empty_partition_and_negatives():
    for k, i in ((3, 1), (6, 2), (11, 5)):
        params = SingularParams(k, i)
        assert enumerate_overpartitions(params, 0) == 1
        assert enumerate_overpartitions(params, -1) == 0
        assert enumerate_overpartitions(params, -17) == 0


def test_six_two_small():
    # n=2 for (6,2): 2, 2bar, 1+1; the 1 is not overlinable
    assert enumerate_overpartitions(SingularParams(6, 2), 2) == 3
    assert enumerate_overpartitions(SingularParams(6, 2), 3) == 4


def test_cap_refusal():
    params = SingularParams(3, 1)
    with pytest.raises(ParameterError):
        enumerate_overpartitions(params, 41)
    assert enumerate_overpartitions(params, 40) == count_by_dp(params, 40)


def test_params_validation():
    for k, i, message in [
        (2, 1, "modulus k must be >= 3, got 2"),
        (5, 3, "residue i must satisfy 1 <= i <= floor(k/2) = 2, got 3"),
        (5, 0, "residue i must satisfy 1 <= i <= floor(k/2) = 2, got 0"),
        (5.0, 1, "k and i must be integers, got (5.0, 1)"),
        # a bool is an int, but no modulus or residue
        (5, True, "k and i must be integers, got (5, True)"),
        (True, 1, "k and i must be integers, got (True, 1)"),
    ]:
        with pytest.raises(ParameterError) as exc:
            SingularParams(k, i)
        assert str(exc.value) == message
    SingularParams(4, 2)  # i = k/2 is allowed


def test_backtracking_agrees_with_dp():
    # every admissible (k, i) with k <= 16, i = k/2 included
    for k, i in ADMISSIBLE_PARAMS:
        params = SingularParams(k, i)
        counts = [count_by_backtracking(params, n) for n in range(21)]
        assert dp_table(params, 20) == counts, (k, i)
        assert [count_by_dp(params, n) for n in range(-2, 21)] == [0, 0] + counts


def test_half_k_counts_two_marks():
    # (4, 2) at n = 2: the part 2 takes no mark or one of two marks (3),
    # plus 1+1; at n = 4: 3+1, 2+2 with any subset of the marks (4),
    # 2+1+1 (3) and 1+1+1+1
    assert dp_table(SingularParams(4, 2), 4) == [1, 1, 4, 5, 9]
    assert enumerate_overpartitions(SingularParams(4, 2), 4) == 9


@pytest.mark.parametrize("k,i", ADMISSIBLE_PARAMS)
def test_dp_table_matches_theta(k, i):
    params = SingularParams(k, i)
    assert tuple(dp_table(params, 300)) == coefficients_theta(params, 300).coeffs


def test_oracle_check_lists_first_ten_mismatches(monkeypatch):
    # every count off by one: the total counts all 41, the list the first 10
    monkeypatch.setattr(checks, "dp_table", lambda params, n: [c + 1 for c in dp_table(params, n)])
    (check,) = checks.oracle(k=5, i=1, n_max=40)
    assert not check["passed"]
    assert check["detail"] == {"mismatches": list(range(10)), "mismatch_count": 41}


@given(st.integers(3, 9), st.integers(0, 14))
@settings(deadline=None, max_examples=30)
def test_count_monotone_in_overlines(k, n):
    # doubling choices can only grow the count: with i such that more
    # residues are overlinable the count is at least the bare one
    params = SingularParams(k, 1)
    bare = _bare_partition_count(k, n)
    assert count_by_dp(params, n) >= bare


def _bare_partition_count(k, n):
    table = [0] * (n + 1)
    table[0] = 1
    for v in range(1, n + 1):
        if v % k == 0:
            continue
        for e in range(v, n + 1):
            table[e] += table[e - v]
    return table[n]
