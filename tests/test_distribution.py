"""Witness sequences, their proof steps, and the parity census."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singover import distribution, parity, tables
from singover.distribution import _steps_hold, build_sequence, parity_census
from singover.errors import ParameterError
from singover.params import SingularParams
from singover.parity import FIRST_ELL, find_in_intervals, interval
from singover.qseries import TruncSeriesF2
from singover.tables import coefficients_theta, parity_table


def test_even_sequence_small():
    assert build_sequence("even", 1000) == (4, 26)  # 26 = 4*13/2; next is 26*79/2 = 1027
    assert build_sequence("even", 4) == (4,)
    assert interval("even", 26) == (26, 1027)
    # the paper's even interval, whose upper end is the sequence's step
    for ell in range(2, 201):
        lo, hi = interval("even", ell)
        assert (lo, hi) == (ell, ell * (3 * ell + 1) // 2)
    terms = build_sequence("even", 1 << 100)
    assert terms[:4] == (4, 26, 1027, 1582607)
    for prev, cur in zip(terms, terms[1:]):
        assert cur == interval("even", prev)[1]


def test_odd_sequence_small():
    terms = build_sequence("odd", 2000)
    assert terms == (2, 5, 35, 1820)  # a(3a-1)/2 iterated
    assert all(a % 3 == 2 for a in terms)
    assert build_sequence("odd", 2) == (2,)
    # the paper's odd interval, whose upper end is the sequence's step
    for ell in range(2, 201):
        lo, hi = interval("odd", ell)
        assert (lo, hi) == (2 * ell - 1, ell * (3 * ell - 1) // 2)
    terms = build_sequence("odd", 1 << 100)
    for prev, cur in zip(terms, terms[1:]):
        assert cur == interval("odd", prev)[1]


def test_sequence_validation():
    with pytest.raises(ParameterError, match="^cutoff 1 is below the seed 2$"):
        build_sequence("odd", 1)
    with pytest.raises(ParameterError, match="^cutoff 3 is below the seed 4$"):
        build_sequence("even", 3)
    for bad in ("both", "neither", "Even", ""):
        message = f"^variant must be 'even' or 'odd', got {bad!r}$"
        with pytest.raises(ParameterError, match=message):
            build_sequence(bad, 100)
        with pytest.raises(ParameterError, match=message):
            interval(bad, 4)


def terms_from(variant, seed, cutoff):
    """The sequence's step a -> interval(variant, a)[1] iterated from any seed."""
    terms = [seed]
    while (nxt := interval(variant, terms[-1])[1]) <= cutoff:
        terms.append(nxt)
    return tuple(terms)


EVEN_SEEDS = st.sampled_from([4, 7, 10, 13, 16, 19, 22])
ODD_SEEDS = st.sampled_from([2, 5, 8, 11, 14, 17, 20])


def in_class(t, a):
    """The least integer >= t in a's class mod 3."""
    return t + (a - t) % 3


# A doctored next term in its step's class reaches the check it is built
# to fail: one off its class, one above the power bound, and one above
# the chain step but, from a_3 on, below the power bound.


@given(EVEN_SEEDS, st.integers(3, 30))
@example(4, 30)  # 4, 26, 1027, 1582607: a doctored a_4 between the bounds
@settings(deadline=None)
def test_even_sequence_invariants(seed, log_cutoff):
    terms = terms_from("even", seed, 1 << log_cutoff)
    if seed == FIRST_ELL["even"]:
        assert terms == build_sequence("even", 1 << log_cutoff)
    assert _steps_hold("even", terms)
    # even-indexed terms keep the residue that re-arms the interval search
    for j, a in enumerate(terms):
        if j % 2 == 0:
            assert a % 3 == 1
    # a next term a_j off its class, above 2^(e-1) a_1^e with
    # e = 2^(j-1), or above 2 a_{j-1}^2 fails its check
    nxt = interval("even", terms[-1])[1]
    assert not _steps_hold("even", terms + (nxt + 1,))
    if len(terms) > 1:  # a_j with j >= 2; a_1 is its own bound
        e, a1 = 2 ** (len(terms) - 1), terms[1]
        assert not _steps_hold("even", terms + (in_class(2 ** (e - 1) * a1**e + 1, nxt),))
    assert not _steps_hold("even", terms + (in_class(2 * terms[-1] ** 2 + 1, nxt),))


@given(ODD_SEEDS, st.integers(3, 30))
@example(2, 30)  # 2, 5, 35, 1820, 4967690: a doctored a_6 between the bounds
@settings(deadline=None)
def test_odd_sequence_invariants(seed, log_cutoff):
    terms = terms_from("odd", seed, 1 << log_cutoff)
    if seed == FIRST_ELL["odd"]:
        assert terms == build_sequence("odd", 1 << log_cutoff)
    assert _steps_hold("odd", terms)
    # a next term a_j off its class, above (3/2)^(e-1) a_1^e with
    # e = 2^(j-1), or above (3/2) a_{j-1}^2 fails its check
    nxt = interval("odd", terms[-1])[1]
    assert not _steps_hold("odd", terms + (nxt + 1,))
    e, a1 = 2 ** len(terms), terms[0]
    power = 3 ** (e - 1) * a1**e // 2 ** (e - 1) + 1
    assert not _steps_hold("odd", terms + (in_class(power, nxt),))
    assert not _steps_hold("odd", terms + (in_class(3 * terms[-1] ** 2 // 2 + 1, nxt),))


def test_sequence_terms_are_big_integers():
    # the even a_5 exceeds 64 bits; exact arithmetic must keep going
    terms = build_sequence("even", 1 << 200)
    assert any(a.bit_length() > 64 for a in terms)
    for prev, cur in zip(terms, terms[1:]):
        assert cur == prev * (3 * prev + 1) // 2


def test_census_partition_of_range():
    report = parity_census(5, 10)
    assert report["even_count"] + report["odd_count"] == 10
    report = parity_census(5, 2000)
    assert report["even_count"] + report["odd_count"] == 2000
    assert report["even_count"] >= report["even_lower_bound"]
    assert report["odd_count"] >= report["odd_lower_bound"]
    assert report["even_dominates"] and report["odd_dominates"]
    assert report["nu_even"] == 2  # 4, 26, 1027
    assert report["nu_odd"] == 4  # 2, 5, 35, 1820
    # nu at each side of the terms 26, 1027 (even, indices from 0) and
    # 5, 35, 1820 (odd, indices from 1); the next terms pass 10^6
    xs = (4, 5, 25, 26, 34, 35, 1026, 1027, 1819, 1820, 10**6)
    reports = [parity_census(5, x) for x in xs]
    assert [r["nu_even"] for r in reports] == [0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
    assert [r["nu_odd"] for r in reports] == [1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4]


def test_census_other_prime():
    report = parity_census(7, 2000)
    assert report["odd_count"] >= report["odd_lower_bound"]
    assert list(report) == [
        "p", "X", "even_count", "odd_count", "nu_even", "nu_odd",
        "even_lower_bound", "odd_lower_bound", "even_dominates", "odd_dominates",
    ]
    assert (report["p"], report["X"]) == (7, 2000)


def test_census_works_on_exact_tables_too():
    # the census counts agree with the parities of the exact table
    exact = coefficients_theta(SingularParams(5, 1), 300)
    odd = sum(v & 1 for v in exact.coeffs[1:])
    report = parity_census(5, 300)
    assert (report["even_count"], report["odd_count"]) == (300 - odd, odd)


def test_census_validation(monkeypatch):
    with pytest.raises(ParameterError):
        parity_census(6, 50)  # composite
    # a table that stops short of X is refused, not read past its end
    monkeypatch.setattr(tables, "parity_table", lambda params, n: parity_table(params, n - 1))
    with pytest.raises(ParameterError, match="does not cover the interval"):
        parity_census(5, 101)


@pytest.mark.parametrize(
    "p,cutoff",
    [
        (1, 10),
        (2, 10),
        (3, 10),
        (4, 10),
        (9, 10),
        (25, 10),
        (5, 0),
        (5, 3),  # below the even sequence's first term 4
    ],
)
def test_census_validates_its_input_before_building_the_table(monkeypatch, p, cutoff):
    built = []
    monkeypatch.setattr(tables, "parity_table", lambda params, n: built.append(n))
    with pytest.raises(ParameterError):
        parity_census(p, cutoff)
    assert built == []


def test_census_below_a_floor_returns_a_false_flag(monkeypatch):
    # fabricated all-even parities force the odd bound to fail
    monkeypatch.setattr(tables, "parity_table", lambda params, n: TruncSeriesF2(1, n))
    report = parity_census(5, 100)
    assert (report["even_count"], report["odd_count"]) == (100, 0)
    assert report["odd_lower_bound"] == 1  # nu_odd = 3: 2, 5, 35
    assert report["even_dominates"] is True and report["odd_dominates"] is False


def census_witnesses(monkeypatch, p, cutoff):
    """The census report and the (variant, l, n) of each interval it read."""
    read = []

    def spy(variant, ells, table):
        rows = find_in_intervals(variant, ells, table)
        read.extend((variant, ell, n) for ell, _, _, n in rows)
        return rows

    monkeypatch.setattr(distribution, "find_in_intervals", spy)
    return parity_census(p, cutoff), read


def test_interval_cover_even(monkeypatch):
    report, read = census_witnesses(monkeypatch, 5, 2000)
    assert report["even_dominates"]
    witnesses = [(ell, n) for variant, ell, n in read if variant == "even"]
    # [1027, 1582607] lies past X, so the walk ends before it
    assert [ell for ell, _ in witnesses] == [4]
    exact = coefficients_theta(SingularParams(5, 1), 2000).coeffs
    for ell, n in witnesses:
        lo, hi = interval("even", ell)
        assert lo <= n <= hi
        assert exact[n] % 2 == 0
        assert all(exact[m] % 2 == 1 for m in range(lo, n))


def test_interval_cover_odd(monkeypatch):
    report, read = census_witnesses(monkeypatch, 5, 2000)
    assert report["odd_dominates"]
    witnesses = [(ell, n) for variant, ell, n in read if variant == "odd"]
    assert [interval("odd", ell) for ell, _ in witnesses] == [(3, 5), (9, 35), (69, 1820)]
    exact = coefficients_theta(SingularParams(5, 1), 2000).coeffs
    for ell, n in witnesses:
        lo, hi = interval("odd", ell)
        assert lo <= n <= hi
        assert exact[n] % 2 == 1
        assert all(exact[m] % 2 == 0 for m in range(lo, n))


def test_census_reads_only_the_intervals_inside_x(monkeypatch):
    # below the top of a variant's first interval its floor is 0 and
    # no interval is read; from that top on, the interval is read
    for cutoff, want in (
        (4, []),
        (5, [("odd", 2, 3)]),  # C-bar_{5,1}(3) is the first odd value in [3, 5]
        (25, [("odd", 2, 3)]),
        (26, [("even", 4, 6), ("odd", 2, 3)]),  # C-bar_{5,1}(6): first even in [4, 26]
    ):
        report, read = census_witnesses(monkeypatch, 5, cutoff)
        assert read == want
        assert report["even_dominates"] and report["odd_dominates"]


def test_census_flags_an_interval_without_its_witness(monkeypatch):
    # degrees 9..35 planted all even: 50 odd values still clear the odd
    # floor 1, but [9, 35] has no odd witness, so the proof fails
    params = SingularParams(5, 1)
    table = parity_table(params, 100)
    planted = TruncSeriesF2(table.bits & ~(((1 << 27) - 1) << 9), 100)
    monkeypatch.setattr(tables, "parity_table", lambda params, n: planted)
    report = parity_census(5, 100)
    assert report["odd_count"] == 50 and report["odd_lower_bound"] == 1
    assert report["odd_dominates"] is False
    assert report["even_dominates"] is True


def test_census_never_asks_about_the_hypothesis(monkeypatch):
    # with every target placed on the form for i = 1, the census gives
    # the report it gives unpatched: for a prime p the exclusions keep
    # its targets off the form, so it never asks
    expected = parity_census(5, 10**4)
    monkeypatch.setattr(parity, "_residue_witness", lambda k, target: 1)
    assert parity.on_form(5, 1, 4 * 13)
    assert parity_census(5, 10**4) == expected
