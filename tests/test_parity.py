"""Exceptional sets, the convolution identity, form exclusions, witnesses."""

import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singover import checks, tables
from singover import qseries as qs
from singover.errors import ParameterError
from singover.params import SingularParams
from singover.parity import (
    FIRST_ELL,
    convolution_mismatches,
    convolution_parity_check,
    exceptional_set,
    exclusion_counterexamples,
    find_even_in_interval,
    find_odd_in_interval,
    first_convolution_mismatch,
    interval,
    on_form,
    _find_in_interval,
    _require_prime,
    _residue_witness,
)
from singover.oracle import enumerate_overpartitions
from singover.tables import coefficients_theta, parity_table

ADMISSIBLE_PARAMS = [(k, i) for k in range(3, 17) for i in range(1, k // 2 + 1)]


def enumerated_table(params, trunc_degree):
    return qs.TruncSeriesZ(
        enumerate_overpartitions(params, n) for n in range(trunc_degree + 1)
    )


def bit(table, n):
    return (table.bits >> n) & 1


# --- exceptional sets -------------------------------------------------------


def test_exceptional_set_six_two():
    exc = exceptional_set(SingularParams(6, 2), 30)
    assert sorted(exc) == [2, 4, 10, 14, 24, 30]
    assert exc[2] == ((1, -1),)
    assert exc[4] == ((1, +1),)
    assert 3 not in exc


def test_exceptional_set_three_one_is_pentagonal():
    exc = exceptional_set(SingularParams(3, 1), 15)
    assert sorted(exc) == [1, 2, 5, 7, 12, 15]


def test_exceptional_set_five_one_regenerated():
    # m-scan for (5m^2 -+ 3m)/2: m=1 gives 1,4; m=2 gives 7,13; m=3
    # gives 18,27 so only 18 stays under 20
    exc = exceptional_set(SingularParams(5, 1), 20)
    assert sorted(exc) == [1, 4, 7, 13, 18]
    assert 16 not in exc


@given(st.integers(3, 12), st.data(), st.integers(0, 300))
@settings(max_examples=60, deadline=None)
def test_exceptional_witnesses_reproduce_members(k, data, bound):
    i = data.draw(st.integers(1, k // 2))
    params = SingularParams(k, i)
    exc = exceptional_set(params, bound)
    for n, pairs in exc.items():
        assert 1 <= n <= bound
        assert pairs
        for m, sign in pairs:
            assert m >= 1 and sign in (-1, 1)
            assert n == (k * m * m + sign * m * (k - 2 * i)) // 2


def test_exceptional_set_half_k_doubles_witnesses():
    exc = exceptional_set(SingularParams(4, 2), 10)
    assert exc[2] == ((1, -1), (1, +1))


@pytest.mark.parametrize("k,i", ADMISSIBLE_PARAMS)
def test_form_bits_carry_the_witness_parity(k, i):
    # the per-n check reads the witness-count parity as bit n of form_bits
    params = SingularParams(k, i)
    exc = exceptional_set(params, 300)
    theta = qs.form_bits(k, i, 300)
    assert [bit(theta, n) for n in range(1, 301)] == [
        len(exc.get(n, ())) & 1 for n in range(1, 301)
    ]


# --- convolution identity ---------------------------------------------------


def test_convolution_holds_everywhere_three_one():
    params = SingularParams(3, 1)
    table = coefficients_theta(params, 200)
    assert all(convolution_parity_check(params, n, table) for n in range(1, 201))


def test_convolution_exceptional_case_from_oracle_table():
    params = SingularParams(6, 2)
    table = enumerated_table(params, 10)
    # n = 2 is exceptional; the convolution C(2)+C(1)+C(0) = 3+1+1 is odd
    assert convolution_parity_check(params, 2, table)
    # n = 3 is not exceptional for (5, 1); C(3)+C(2)+C(1) = 5+3+2 is even
    params51 = SingularParams(5, 1)
    assert convolution_parity_check(params51, 3, enumerated_table(params51, 10))


@pytest.mark.parametrize("k,i", [(3, 1), (5, 2), (7, 1), (6, 2)])
def test_wholesale_convolution(k, i):
    params = SingularParams(k, i)
    table = coefficients_theta(params, 240)
    assert first_convolution_mismatch(params, table) is None


@pytest.mark.parametrize("k,i", [(3, 1), (4, 2), (7, 3)])
def test_convolution_failures_match_the_per_n_check(k, i):
    # the wholesale check finds exactly the degrees the single-n check
    # rejects, on a true table and on one with a single parity flipped
    params = SingularParams(k, i)
    table = coefficients_theta(params, 120)
    assert convolution_mismatches(params, table) == []
    values = list(table.coeffs)
    values[40] += 1
    bad_table = qs.TruncSeriesZ(values)
    per_n = [n for n in range(1, 121) if not convolution_parity_check(params, n, bad_table)]
    assert 40 in per_n
    assert convolution_mismatches(params, bad_table) == per_n
    assert first_convolution_mismatch(params, bad_table) == 40


def reference_failures(params, values):
    """The per-n check as the interpreter loop it replaced: each n walks
    the pentagonal offsets and compares the parity of the sum with the
    parity of n's witness count."""
    top = len(values) - 1
    offsets = [e for e, _, _ in qs.form_exponents(3, 1, top)]
    witnesses = exceptional_set(params, top)
    failures = []
    for n in range(1, top + 1):
        total = values[n]  # s = 0 term of the first sum
        for e in offsets:
            if e > n:
                break
            total += values[n - e]
        if total & 1 != len(witnesses.get(n, ())) & 1:
            failures.append(n)
    return failures


@pytest.mark.parametrize("k,i", [(k, i) for k, i in ADMISSIBLE_PARAMS if k <= 13])
def test_per_n_failures_match_the_reference_loop(k, i, monkeypatch):
    # on the true table, on one with odd errors planted and on one with
    # an odd error at degree 0 only, at every N; the lemma 1 suite reads
    # the table from the patched store
    params = SingularParams(k, i)
    rng = random.Random(f"per-n {k},{i}")
    full = coefficients_theta(params, 2875).coeffs
    for n_max in (1, 2, 120, 2875):
        clean = list(full[: n_max + 1])
        planted = list(clean)
        for n in rng.sample(range(n_max + 1), min(5, n_max + 1)):
            planted[n] += rng.choice((-1, 1)) * (2 * rng.randrange(4) + 1)
        at_zero = list(clean)
        at_zero[0] += 1  # C(0) = 1 turns even
        for values in (clean, planted, at_zero):
            expected = reference_failures(params, values)
            if values is clean:
                assert expected == []
            else:  # below N = 120 the planted errors can cancel
                assert n_max < 120 or expected
            table = qs.TruncSeriesZ(values)
            monkeypatch.setattr(tables, "coefficients_theta", lambda p, n: table)
            wholesale, per_n = checks.lemma1(k, i, n_max)
            assert per_n["detail"] == {"failures": expected[:10], "failure_count": len(expected)}
            # theta has constant term 1, so degree 0 mismatches when C(0) is
            # even; the wholesale list reports it, the per-n record does not
            zero = [0] if values[0] % 2 == 0 else []
            assert convolution_mismatches(params, table) == zero + expected
            assert wholesale["detail"] == {
                "first_mismatch": (zero + expected or [None])[0],
                "mismatch_count": len(zero + expected),
            }
            probes = range(1, n_max + 1) if n_max <= 120 else rng.sample(range(1, n_max + 1), 40)
            for n in probes:
                assert convolution_parity_check(params, n, table) == (n not in expected)


def integer_mismatches(params, table):
    """The wholesale check in integer arithmetic: multiply, then reduce."""
    n = table.trunc_degree
    lhs = qs.reduce_mod2(qs.mul(qs.eta_product(1, n), table))
    rhs = qs.reduce_mod2(qs.theta_sum(params.k, params.i, n))
    return qs._set_bits(lhs.bits ^ rhs.bits)


@pytest.mark.parametrize("k,i", ADMISSIBLE_PARAMS)
def test_wholesale_gf2_matches_integer_form(k, i):
    # the GF(2) product of the reduced factors against the reduced integer
    # product, on the true table, with odd and with even perturbations
    params = SingularParams(k, i)
    table = coefficients_theta(params, 250)
    assert convolution_mismatches(params, table) == integer_mismatches(params, table) == []
    rng = random.Random(f"{k},{i}")
    odd = rng.sample(range(251), 5)
    even = rng.sample(range(251), 5)
    odd_values, even_values = list(table.coeffs), list(table.coeffs)
    for n in odd:
        odd_values[n] += rng.choice((-1, 1)) * (2 * rng.randrange(4) + 1)
    for n in even:
        even_values[n] += rng.choice((-1, 1)) * 2 * rng.randrange(1, 4)
    odd_table = qs.TruncSeriesZ(odd_values)
    even_table = qs.TruncSeriesZ(even_values)
    found = convolution_mismatches(params, odd_table)
    assert found == integer_mismatches(params, odd_table)
    assert found[0] == min(odd)
    assert convolution_mismatches(params, even_table) == integer_mismatches(params, even_table) == []


def test_convolution_requires_positive_n_and_coverage():
    params = SingularParams(3, 1)
    table = coefficients_theta(params, 20)
    with pytest.raises(ParameterError):
        convolution_parity_check(params, 0, table)
    with pytest.raises(ParameterError, match="^table degree 20 does not cover n = 21$"):
        convolution_parity_check(params, 21, table)


def test_convolution_caveat_at_half_k():
    # with i = k/2 both signs produce each exceptional value k m^2 / 2,
    # the theta coefficient there is 2 and the convolution is even; the
    # per-n check compares with that parity, so it holds on the set too
    params = SingularParams(4, 2)
    table = coefficients_theta(params, 50)
    for n in (2, 8, 18, 32, 50):
        assert len(exceptional_set(params, n)[n]) == 2
        assert convolution_parity_check(params, n, table)


# --- quadratic form checks ---------------------------------------------------


def direct_form_witnesses(k, i, bound):
    """Map each target <= bound to its smallest (m, sign) with
    k m^2 + sign m(k-2i) = target, by evaluating both signs at every
    m <= bound; minus first at equal m."""
    found = {}
    for m in range(1, bound + 1):
        for sign in (-1, +1):
            t = k * m * m + sign * m * (k - 2 * i)
            if t <= bound:
                found.setdefault(t, (m, sign))
    return found


def direct_residue_witnesses(k, bound):
    """Map each target <= bound to the list of (i, m, sign) that take it,
    one per i <= k/2 with a ``direct_form_witnesses`` entry."""
    found = {}
    for i in range(1, k // 2 + 1):
        for t, w in direct_form_witnesses(k, i, bound).items():
            found.setdefault(t, []).append((i, *w))
    return found


def test_form_witness_examples():
    assert _residue_witness(5, 26) == 1  # 5*4 + 2*3
    assert _residue_witness(5, 2) == 1  # 5 - 3
    assert _residue_witness(5, 42) == 2  # 5*9 - 3*1
    assert _residue_witness(5, 52) is None  # 52 = 4*13 escapes both forms
    assert _residue_witness(4, 30) == 1  # 4*9 - 3*2
    assert _residue_witness(4, 16) == 2  # i = k/2: both signs
    assert _residue_witness(4, 12) == 1  # 4*4 - 2*2, not 4 m^2
    assert _residue_witness(4, 10) is None
    assert on_form(5, 1, 26) and not on_form(5, 2, 26)
    assert on_form(5, 2, 42) and not on_form(5, 1, 42)
    assert not on_form(5, 1, 52) and not on_form(5, 2, 52)


@given(st.integers(3, 12), st.data(), st.integers(1, 400))
@settings(max_examples=80, deadline=None)
def test_form_witness_matches_direct_evaluation(k, data, target):
    # the target is on the form of i exactly when some (m, sign) of i
    # takes it, as the exclusion scan and the interval skips ask
    i = data.draw(st.integers(1, k // 2))
    assert on_form(k, i, target) == (target in direct_form_witnesses(k, i, target))


@pytest.mark.parametrize("k", range(3, 17))
def test_residue_witness_matches_direct_evaluation(k):
    # every target up to the bound: at most one (i, m, sign) takes it,
    # and _residue_witness returns its i or None
    bound = 3000
    direct = direct_residue_witnesses(k, bound)
    for t in range(1, bound + 1):
        hits = direct.get(t, [])
        assert len(hits) <= 1, (t, hits)
        assert _residue_witness(k, t) == (hits[0][0] if hits else None), t
    found = {hit for (hit,) in direct.values()}
    assert {sign for _, _, sign in found} == {-1, +1}
    assert len(direct) < bound  # some targets no residue takes


@pytest.mark.parametrize(
    "p,ell", [(5, 4), (7, 7), (11, 10), (13, 4), (17, 13), (19, 7)]
)
def test_even_exclusion_examples(p, ell):
    assert not on_form(p, 1, ell * (3 * ell + 1))
    assert ell not in exclusion_counterexamples(p, ell, "even")


@pytest.mark.parametrize(
    "p,ell", [(5, 2), (7, 5), (13, 8), (11, 2), (17, 11), (19, 14)]
)
def test_odd_exclusion_examples(p, ell):
    assert not on_form(p, 1, ell * (3 * ell - 1))
    assert ell not in exclusion_counterexamples(p, ell, "odd")


def test_exclusion_validation():
    with pytest.raises(ParameterError):
        exclusion_counterexamples(9, 10, "even")  # not prime
    with pytest.raises(ParameterError):
        exclusion_counterexamples(25, 10, "odd")  # odd square
    with pytest.raises(ParameterError):
        exclusion_counterexamples(3, 10, "even")  # p below 5
    with pytest.raises(ParameterError, match="^variant must be 'even' or 'odd', got 'sideways'$"):
        exclusion_counterexamples(5, 10, "sideways")
    # below a variant's first l the scan would check no l and pass
    for variant, first in FIRST_ELL.items():
        for ell_max in range(first):
            message = f"^ell_max must be >= {first} for {variant}, got {ell_max}$"
            with pytest.raises(ParameterError, match=message):
                exclusion_counterexamples(5, ell_max, variant)
        assert exclusion_counterexamples(5, first, variant) == []
    with pytest.raises(ParameterError, match="^ell_max must be >= 4 for even, got 3$"):
        checks.exclusions(5, 3)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_exclusion_batch_empty(p):
    assert exclusion_counterexamples(p, 1000, "even") == []
    assert exclusion_counterexamples(p, 1000, "odd") == []


def test_exclusion_targets_match_direct_evaluation():
    # the targets l(3l +- 1), l <= 40, against every admissible (k, i)
    # with k <= 16: some are form values (l = 9's target 252 lies on the
    # form of (5, 2)), and _residue_witness must find exactly those, with
    # their i
    hits = 0
    for k in range(3, 17):
        direct = direct_residue_witnesses(k, 40 * 121)
        for ell in range(2, 41):
            for t in (ell * (3 * ell + 1), ell * (3 * ell - 1)):
                assert [_residue_witness(k, t)] == ([i for i, _, _ in direct.get(t, [])] or [None])
                hits += t in direct
    assert hits > 0
    for p in (5, 7):
        direct = direct_form_witnesses(p, 1, 100 * 301)
        for variant, sign, start in (("even", +1, 4), ("odd", -1, 2)):
            expected = [
                ell
                for ell in range(start, 101, 3)
                if ell * (3 * ell + sign) in direct
            ]
            assert exclusion_counterexamples(p, 100, variant) == expected == []


def _accepted(p):
    try:
        _require_prime(p)
    except ParameterError:
        return False
    return True


def test_prime_check_agrees_with_trial_division():
    for p in range(-3, 100_000):
        trial = p >= 5 and all(p % f for f in range(2, math.isqrt(p) + 1))
        assert _accepted(p) == trial, p


@pytest.mark.parametrize(
    "p",
    # Carmichael numbers, a strong pseudoprime to the bases 2, 3, 5, 7,
    # and squares of primes
    [561, 41041, 3215031751, 49, 10007**2, (2**31 - 1) ** 2],
)
def test_prime_check_rejects_pseudoprimes_and_squares(p):
    with pytest.raises(ParameterError, match=f"p must be a prime >= 5, got {p}$"):
        _require_prime(p)


def test_prime_check_is_fast_and_bounded():
    start = time.perf_counter()
    _require_prime(2**61 - 1)
    with pytest.raises(ParameterError, match="p must be a prime"):
        _require_prime((2**61 - 1) * 1_000_003)
    # from the bound on the 13 bases are not enough: the bound itself is
    # a composite that passes all of them
    bound = 3317044064679887385961981
    assert 1287836182261 * 2575672364521 == bound
    for p in (bound, 2**89 - 1):
        with pytest.raises(ParameterError, match=f"p must be below {bound}"):
            _require_prime(p)
    _require_prime(3317044064679887385961813)  # the largest prime below the bound
    assert time.perf_counter() - start < 0.1


# --- interval witnesses -------------------------------------------------------


@pytest.mark.parametrize("p,ell", [(5, 4), (7, 7), (5, 10)])
def test_even_witness_exists(p, ell):
    params = SingularParams(p, 1)
    hi = ell * (3 * ell + 1) // 2
    table = parity_table(params, hi)
    w = find_even_in_interval(ell, table)
    assert ell <= w <= hi
    # independently recomputed parity and minimality
    exact = coefficients_theta(params, hi).coeffs
    assert exact[w] % 2 == 0
    assert all(exact[n] % 2 == 1 for n in range(ell, w))


@pytest.mark.parametrize("p,ell", [(5, 2), (7, 5), (11, 8)])
def test_odd_witness_exists(p, ell):
    params = SingularParams(p, 1)
    hi = ell * (3 * ell - 1) // 2
    table = parity_table(params, hi)
    w = find_odd_in_interval(ell, table)
    assert 2 * ell - 1 <= w <= hi
    exact = coefficients_theta(params, hi).coeffs
    assert exact[w] % 2 == 1
    assert all(exact[n] % 2 == 0 for n in range(2 * ell - 1, w))


def test_witness_finder_does_not_ask_the_hypothesis():
    # 30 = l(3l+1) for l = 3 equals 4*3^2 - 2*3, so the hypothesis fails
    # for (4, 1); the finder reads the interval all the same and leaves
    # the skip to its caller
    params = SingularParams(4, 1)
    table = parity_table(params, 60)
    assert on_form(4, 1, 30) and not on_form(4, 2, 30)
    lo, hi = interval("even", 3)
    assert find_even_in_interval(3, table) == _scan_by_degree(table, lo, hi, 0)


def test_witness_precondition_asks_only_its_own_residue():
    # l = 9: 252 avoids the i=1 form but 252 = 5*7^2 + 7 hits i = 2
    # (where k-2i = 1); the guarantee for i = 1 still holds
    params = SingularParams(5, 1)
    table = parity_table(params, 9 * 28 // 2)
    assert _residue_witness(5, 252) == 2
    assert on_form(5, 2, 252) and not on_form(5, 1, 252)
    w = find_even_in_interval(9, table)
    assert 9 <= w <= 126 and not bit(table, w)


def residue_walk(k, target):
    """_residue_witness as a walk over the residues: the smallest i <= k/2
    whose form takes the target, as (i, m, sign), minus first.
    With d = k - 2i, both signs solve to m = (r -+ d) / 2k where
    r^2 = d^2 + 4 k T, one integer square root per i.
    T >= k m^2 - m(k-2i) >= 2im, so no i above T/2 can take it."""
    for i in range(1, min(k // 2, target // 2) + 1):
        d = k - 2 * i
        disc = d * d + 4 * k * target
        r = math.isqrt(disc)
        if r * r != disc:
            continue
        for sign in (-1, +1):
            m, rest = divmod(r - sign * d, 2 * k)
            if not rest:
                return i, m, sign
    return None


@pytest.mark.parametrize(
    # past the targets the walk takes one root per i <= T/2: 1.7 million
    # for p = 10000019 at l <= 120, so that p stops at l = 60
    "p,ell_max", [(5, 120), (7, 120), (11, 120), (13, 120), (17, 120), (10000019, 60)]
)
def test_strict_precondition_matches_the_residue_walk(p, ell_max):
    # every target l(3l +- 1) with l <= ell_max: the solver finds the
    # residue the walk finds, on_form holds for i = 1 exactly when the
    # walk's i is 1, and the report skips those l (none, by the
    # exclusions)
    skipped = {"even": [], "odd": []}
    for ell in range(2, ell_max + 1):
        for variant, t in (("even", ell * (3 * ell + 1)), ("odd", ell * (3 * ell - 1))):
            hit = residue_walk(p, t)
            walk_i = hit and hit[0]
            assert _residue_witness(p, t) == walk_i
            assert on_form(p, 1, t) == (walk_i == 1)
            if walk_i == 1 and ell % 3 == FIRST_ELL[variant] % 3:
                skipped[variant].append(ell)
    for check, variant in zip(checks.intervals(p, ell_max), ("even", "odd")):
        assert check["detail"]["skipped"] == skipped[variant][:10]
        assert check["detail"]["skipped_count"] == len(skipped[variant])


def test_at_most_one_residue_takes_a_target():
    # the ranges [k m^2 - (k-2)m, k m^2 + (k-2)m] are disjoint for
    # distinct m, so at most one (i, m) takes a target; on_form asks for
    # that one, and holds only when it is the caller's i
    taken = 0
    for k in range(3, 17):
        direct = direct_residue_witnesses(k, 1000)
        for t in range(1, 1001):
            hits = direct.get(t, [])
            assert len(hits) <= 1
            assert _residue_witness(k, t) == (hits[0][0] if hits else None)
            for i in range(1, k // 2 + 1):
                assert on_form(k, i, t) == (bool(hits) and hits[0][0] == i)
            taken += bool(hits)
    assert taken > 1000


def test_precondition_at_the_largest_l_is_fast():
    # two candidate m per target, not one root per residue i <= k/2
    start = time.perf_counter()
    even, odd = checks.intervals(10000019, checks.CAP_INTERVALS)
    assert time.perf_counter() - start < 2.0
    assert checks.CAP_INTERVALS == 816
    assert even["detail"]["skipped_count"] == odd["detail"]["skipped_count"] == 0
    assert even["passed"] and odd["passed"]


def test_witness_table_too_short():
    # the even witness of l = 4 is n = 6: a table that ends inside [4, 26]
    # still answers when the witness lies before its end, and returns
    # None, asking for a deeper table, when none does
    params = SingularParams(5, 1)
    assert find_even_in_interval(4, parity_table(params, 26)) == 6
    for n_max in (6, 20):
        assert find_even_in_interval(4, parity_table(params, n_max)) == 6
    for n_max in (0, 3, 5):
        assert find_even_in_interval(4, parity_table(params, n_max)) is None


def _full_depth_report(p, ell_max):
    """The intervals report read off one table built to the top degree."""
    params = SingularParams(p, 1)
    table = tables.parity_table(params, ell_max * (3 * ell_max + 1) // 2)
    results = []
    for variant, finder in (("even", find_even_in_interval), ("odd", find_odd_in_interval)):
        found, failures, skipped = [], [], []
        for ell in range(FIRST_ELL[variant], ell_max + 1, 3):
            lo, hi = interval(variant, ell)
            if on_form(p, 1, 2 * hi):
                skipped.append(ell)
            elif (n := finder(ell, table)) is None:
                error = (
                    f"no {variant} value of C-bar_{{{p},1}} in [{lo}, {hi}] (l = {ell}); "
                    "this contradicts a proven statement"
                )
                failures.append({"ell": ell, "error": error})
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


# the primes of the benchmark's parity workload
PARITY_COLD_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@pytest.mark.parametrize(
    "p,ell_max",
    [(p, ell_max) for p in PARITY_COLD_PRIMES for ell_max in (4, 13, 40, 257)] + [(5, 816)],
)
def test_intervals_report_equals_the_full_depth_report(p, ell_max):
    # the suite's table starts at twice the largest low end and grows on
    # demand; its report is the one a table built to the top gives
    assert checks.intervals(p, ell_max) == _full_depth_report(p, ell_max)


def test_intervals_grow_the_table_to_the_top_on_a_planted_odd_tail(monkeypatch):
    # every value from degree 200 on planted odd: the even intervals that
    # start there hold no even value, so the table must grow to the top
    # before they fail, and each fails with the full-table record
    ell_max, top = 300, 300 * 901 // 2
    real, builds = tables.parity_table, []

    def planted(params, n_max):
        builds.append(n_max)
        tail = ((1 << (n_max + 1)) - 1) >> 200 << 200
        return qs.TruncSeriesF2(real(params, n_max).bits | tail, n_max)

    monkeypatch.setattr(tables, "parity_table", planted)
    expected = _full_depth_report(5, ell_max)
    assert expected[0]["detail"]["failure_count"] == 34
    assert expected[1]["passed"]
    builds.clear()
    assert checks.intervals(5, ell_max) == expected
    assert builds[0] == 2 * (2 * ell_max - 1)
    assert builds[-1] == top
    assert builds == [min(builds[0] << j, top) for j in range(len(builds))]


def test_witness_discrepancy_on_fabricated_table():
    # an all-odd table cannot happen for real parameters; fabricate one:
    # the finder returns None on the covered interval, and the suite's
    # failure record is pinned in tests/test_cli.py
    fake = qs.reduce_mod2(qs.TruncSeriesZ((1,) * 27))
    assert find_even_in_interval(4, fake) is None


def _scan_by_degree(table, lo, hi, want_bit):
    """The smallest n in [lo, hi] with the wanted parity, probing one n at a time."""
    return next((n for n in range(lo, hi + 1) if bit(table, n) == want_bit), None)


def _fabricated(kind, odd_degrees, n_max):
    """A parity table, packed directly or reduced from a fabricated exact one."""
    if kind == "parity":
        return qs.TruncSeriesF2(sum(1 << n for n in odd_degrees if n <= n_max), n_max)
    values = [3 if n in odd_degrees else 2 for n in range(n_max + 1)]
    return qs.reduce_mod2(qs.TruncSeriesZ(values))


@pytest.mark.parametrize("kind", ["parity", "coeff"])
def test_interval_scan_reads_both_ends_and_nothing_outside(kind):
    n_max = 40
    for variant, ell in (("even", 4), ("odd", 5)):
        lo, hi = interval(variant, ell)  # [4, 26] and [9, 35]

        def find(witnesses, table_degree=n_max):
            # a table whose degrees of the variant's parity are exactly these
            odd_degrees = witnesses if variant == "odd" else set(range(n_max + 1)) - witnesses
            table = _fabricated(kind, odd_degrees, table_degree)
            return _find_in_interval(variant, ell, table)

        assert find({lo}) == lo
        assert find({hi}) == hi
        assert find({hi, lo + 1}) == lo + 1
        # degrees just outside [lo, hi] do not count
        assert find({lo - 1, hi + 1}) is None
        # a table that ends inside [lo, hi] is read up to its end: a
        # witness there is returned, and with none there (one past the
        # end does not count) the table is too short: None
        short = hi - 1
        assert find(set(range(n_max + 1)), short) == lo
        assert find({short}, short) == short
        assert find(set(), short) is None
        assert find({hi}, short) is None


@pytest.mark.parametrize("p", [5, 7, 13])
def test_interval_scan_matches_a_per_degree_scan(p):
    # the window read at every l, on the form or off it
    params = SingularParams(p, 1)
    top = 60 * (3 * 60 + 1) // 2
    for table in (parity_table(params, top), qs.reduce_mod2(coefficients_theta(params, top))):
        for ell in range(2, 61):
            for variant, want_bit in (("even", 0), ("odd", 1)):
                lo, hi = interval(variant, ell)
                expected = _scan_by_degree(table, lo, hi, want_bit)
                assert _find_in_interval(variant, ell, table) == expected


# --- cited parity facts at moderate degree -------------------------------------


def test_known_parity_facts_small():
    n = 400
    t31 = parity_table(SingularParams(3, 1), n)
    assert all(bit(t31, e) == 0 for e in range(1, n + 1))
    t41 = parity_table(SingularParams(4, 1), n)
    assert all(bit(t41, e) == 0 for e in range(1, n + 1, 2))
    pents = {j * (3 * j - 1) // 2 for j in range(-n, n + 1) if j}
    t62 = parity_table(SingularParams(6, 2), n)
    assert all(bit(t62, e) == (1 if e in pents else 0) for e in range(1, n + 1))


def test_lemma1_and_parity_facts_refuse_an_empty_range():
    # at n_max = 0 the per-n and first three parity checks would cover no degree
    for n_max in (0, -1):
        message = f"^n_max must be >= 1, got {n_max}$"
        with pytest.raises(ParameterError, match=message):
            checks.lemma1(5, 1, n_max)
        with pytest.raises(ParameterError, match=message):
            checks.parity_facts(n_max)
    assert all(check["passed"] for check in checks.lemma1(5, 1, 1) + checks.parity_facts(1))


def test_parity_facts_report_planted_failures(monkeypatch):
    # plant odd values into true tables and check the reported lists:
    # ascending, the first 10, and the exact total
    n = 3000
    rng = random.Random(0xFAC7)
    true = {
        (k, i): parity_table(SingularParams(k, i), n).bits
        for k, i in ((3, 1), (4, 1), (6, 2), (4, 2))
    }
    plant31 = sorted(rng.sample(range(1, n + 1), 23) + [n])
    plant41 = sorted(rng.sample(range(1, n + 1, 2), 14))
    even_noise = rng.sample(range(0, n + 1, 2), 9)  # even degrees: no fact about them
    plant62 = sorted(rng.sample(range(1, n + 1), 17))
    plant42 = sorted(rng.sample(range(1, n + 1), 12) + [0])  # C-bar_{4,2}(0) = p(0)
    planted = {
        (3, 1): plant31 + [0],  # degree 0 lies outside the first three facts
        (4, 1): plant41 + even_noise,
        (6, 2): plant62,
        (4, 2): plant42,
    }

    def fake(params, trunc_degree):
        key = (params.k, params.i)
        flips = sum(1 << e for e in planted[key])
        return qs.TruncSeriesF2(true[key] ^ flips, trunc_degree)

    monkeypatch.setattr(tables, "parity_table", fake)
    c31, c41, c62, c42 = checks.parity_facts(n)
    assert not (c31["passed"] or c41["passed"] or c62["passed"] or c42["passed"])
    assert c31["detail"] == {"odd_at": plant31[:10], "failure_count": len(plant31)}
    assert c41["detail"] == {"odd_at": plant41[:10], "failure_count": len(plant41)}
    assert c62["detail"] == {"mismatch_at": plant62[:10], "mismatch_count": len(plant62)}
    assert c42["detail"] == {"mismatch_at": plant42[:10], "mismatch_count": len(plant42)}
