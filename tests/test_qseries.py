"""Integer-series arithmetic: exactness, ring laws, the named products."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singover.errors import ParameterError
from singover.params import SingularParams
from singover.parity import exceptional_set
from singover.qseries import (
    _BLOCK,
    TruncSeriesZ,
    _mul_pochhammer_neg,
    _set_bits,
    div,
    eta_product,
    form_bits,
    form_exponents,
    mul,
    pochhammer_neg,
    theta_sum,
)

coeffs = st.integers(-9, 9)


@st.composite
def series_pair(draw, max_degree=24):
    n = draw(st.integers(0, max_degree))
    a = draw(st.lists(coeffs, min_size=n + 1, max_size=n + 1))
    b = draw(st.lists(coeffs, min_size=n + 1, max_size=n + 1))
    return TruncSeriesZ(a), TruncSeriesZ(b)


@st.composite
def series_triple(draw, max_degree=16):
    n = draw(st.integers(0, max_degree))
    rows = [
        draw(st.lists(coeffs, min_size=n + 1, max_size=n + 1)) for _ in range(3)
    ]
    return tuple(TruncSeriesZ(r) for r in rows)


# Eta steps for the division tests: the terms of (q^m;q^m) for 32, 63,
# 64, 65, 127 and 128 land on the block edges 63-65 and 126-130, and the
# first term of (q^200;q^200) lies past three blocks.
ETA_STEPS = (1, 2, 7, 21, 32, 63, 64, 65, 127, 128, 200)


@st.composite
def series_and_step(draw, max_degree=140):
    n = draw(st.integers(0, max_degree))
    s = draw(st.lists(coeffs, min_size=n + 1, max_size=n + 1))
    return TruncSeriesZ(s), draw(st.sampled_from(ETA_STEPS))


# --- independent little oracles used to freeze expected values -------------


def partition_count(n, max_part=None):
    """Plain recursive partition count, no series anywhere."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    if max_part is None:
        max_part = n
    total = 0
    for v in range(min(n, max_part), 0, -1):
        total += partition_count(n - v, v)
    return total


def distinct_ap_count(a, b, n):
    """Partitions of n into distinct parts a, a+b, a+2b, ..."""
    parts = list(range(a, n + 1, b))

    def rec(rem, idx):
        if rem == 0:
            return 1
        if idx == len(parts) or parts[idx] > rem:
            return 0
        return rec(rem - parts[idx], idx + 1) + rec(rem, idx + 1)

    return rec(n, 0)


# --- multiplication ---------------------------------------------------------


def test_mul_identity():
    one = TruncSeriesZ.constant(1, 5)
    t = TruncSeriesZ([3, -1, 4, 1, -5, 9])
    assert mul(one, t) == t


def test_mul_binomial():
    s = TruncSeriesZ([1, 1, 0])
    assert mul(s, s).coeffs == (1, 2, 1)


def test_mul_eta_against_its_inverse():
    n = 50
    eta = eta_product(1, n)
    inv = div(TruncSeriesZ.constant(1, n), 1)
    assert mul(eta, inv) == TruncSeriesZ.constant(1, n)


def test_mul_degree_mismatch():
    with pytest.raises(ParameterError, match="^truncation degrees differ: 1 vs 2$"):
        mul(TruncSeriesZ([1, 2]), TruncSeriesZ([1, 2, 3]))


@given(series_pair())
def test_mul_commutes(pair):
    s, t = pair
    assert mul(s, t) == mul(t, s)


@given(series_triple())
@settings(deadline=None)
def test_mul_associates(triple):
    s, t, u = triple
    assert mul(mul(s, t), u) == mul(s, mul(t, u))


@given(series_pair(), st.integers(0, 24))
def test_mul_truncation_consistency(pair, cut):
    s, t = pair
    cut = min(cut, s.trunc_degree)
    full = mul(s, t).truncate(cut)
    direct = mul(s.truncate(cut), t.truncate(cut))
    assert full == direct


def mul_by_comprehension(s, t):
    """Reference: every nonzero term of s takes the multiply-add comprehension."""
    res = [0] * len(s.coeffs)
    for j, c in enumerate(s.coeffs):
        if c:
            res[j:] = [r + c * v for r, v in zip(res[j:], t.coeffs)]
    return TruncSeriesZ(res)


@pytest.mark.parametrize("n", [0, 1, 7, 200])
def test_sign_split_mul_against_comprehension(n):
    # a sparse factor mixing +-1 with other coefficients, a dense one,
    # and an eta product (all +-1): the sparser one drives either order
    rng = random.Random(n)
    sparse = [rng.choice((1, -1, 2, -5, 0, 0, 0, 0)) for _ in range(n + 1)]
    dense = [rng.randint(-99, 99) for _ in range(n + 1)]
    series = [TruncSeriesZ(sparse), TruncSeriesZ(dense), eta_product(2, n)]
    for s in series:
        for t in series:
            want = mul_by_comprehension(s, t)
            assert mul(s, t) == want and mul(t, s) == want


# --- division ----------------------------------------------------------------


def test_div_identity():
    # (q^4;q^4) is 1 through degree 3
    s = TruncSeriesZ([5, 0, -2, 7])
    assert div(s, 4) == s


def test_div_partition_numbers():
    # 1/(q;q) enumerates partitions; expected values recomputed by the
    # recursive counter above and frozen here.
    expected = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)
    assert tuple(partition_count(n) for n in range(11)) == expected
    got = div(TruncSeriesZ.constant(1, 10), 1)
    assert got.coeffs == expected


def test_div_simple_factor():
    # (q^2;q^2) = 1 - q^2 - q^4 through degree 5
    s = TruncSeriesZ([1, 0, -1, 0, -1, 0])
    assert div(s, 2).coeffs == (1, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("m", [0, -3])
def test_div_refuses_a_step_below_one(m):
    with pytest.raises(ParameterError) as caught:
        div(TruncSeriesZ([1, 1]), m)
    assert str(caught.value) == f"eta product step must be >= 1, got {m}"


def test_div_refuses_a_head_past_the_truncation_degree():
    s = theta_sum(5, 1, 5)
    head = div(theta_sum(5, 1, 9), 1).coeffs
    with pytest.raises(ParameterError, match=r"^head longer than the quotient: 10 > 6 terms$"):
        div(s, 1, head)
    assert div(s, 1, head[:6]) == div(s, 1)


def div_extend_by_degree(r, sc, tc):
    """Reference: the per-degree forward substitution, every term each degree."""
    nz = [(j, c) for j, c in enumerate(tc) if c and j > 0]
    for e in range(len(r), len(sc)):
        acc = sc[e]
        for j, c in nz:
            if j > e:
                break
            acc -= c * r[e - j]
        r.append(acc * tc[0])


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 127, 128, 129, 323, 1000])
def test_blocked_div_against_per_degree_loop(n):
    assert _BLOCK == 64  # the degrees above straddle the block edges
    rng = random.Random(-n)
    numerators = [
        theta_sum(5, 1, n).coeffs,
        tuple(rng.randint(-9, 9) for _ in range(n + 1)),
    ]
    for sc in numerators:
        for m in ETA_STEPS:
            want = []
            div_extend_by_degree(want, sc, eta_product(m, n).coeffs)
            assert div(TruncSeriesZ(sc), m).coeffs == tuple(want), m


def test_blocked_div_resumes_from_every_start():
    # resumes that begin inside a block and below the block width
    n = 323
    s = theta_sum(7, 2, n)
    for m in ETA_STEPS:
        want = []
        div_extend_by_degree(want, s.coeffs, eta_product(m, n).coeffs)
        for start in range(131):
            assert div(s, m, want[:start]).coeffs == tuple(want), (m, start)


@given(series_and_step())
@settings(deadline=None)
def test_div_mul_roundtrip(pair):
    s, m = pair
    assert mul(div(s, m), eta_product(m, s.trunc_degree)) == s


@given(series_and_step(), st.integers(0, 140))
@settings(deadline=None)
def test_div_truncation_consistency(pair, cut):
    s, m = pair
    cut = min(cut, s.trunc_degree)
    assert div(s, m).truncate(cut) == div(s.truncate(cut), m)


@given(series_and_step(), st.integers(0, 140))
@settings(deadline=None)
def test_div_resumed_from_a_lower_quotient_equals_a_fresh_division(pair, cut):
    s, m = pair
    cut = min(cut, s.trunc_degree)
    head = div(s.truncate(cut), m).coeffs
    assert div(s, m, head) == div(s, m)


# --- eta products ------------------------------------------------------------


def test_eta_small_expansion():
    # support 0,1,2,5,7 with signs +,-,-,+,+
    assert eta_product(1, 7).coeffs == (1, -1, -1, 0, 0, 1, 0, 1)


def test_eta_scaled_is_substitution():
    assert eta_product(2, 4).coeffs == (1, 0, -1, 0, -1)
    n = 60
    base = eta_product(1, n // 2)
    scaled = eta_product(2, n)
    for e in range(n + 1):
        expect = base.coeffs[e // 2] if e % 2 == 0 else 0
        assert scaled.coeffs[e] == expect


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_eta_support_is_pentagonal(m):
    n = 400
    series = eta_product(m, n)
    # independent scan of the exponents m * j(3j -+ 1)/2
    expected = set()
    j = 0
    while m * j * (3 * j - 1) // 2 <= n or j < 2:
        for e in (m * j * (3 * j - 1) // 2, m * j * (3 * j + 1) // 2):
            if e <= n:
                expected.add(e)
        j += 1
    assert {e for e, c in enumerate(series.coeffs) if c} == expected
    assert all(c in (-1, 0, 1) for c in series.coeffs)


def test_eta_rejects_bad_step():
    with pytest.raises(ParameterError):
        eta_product(0, 10)


def test_generalized_pentagonals():
    # (q;q) mod 2 is 1 plus q^e at every generalized pentagonal e
    assert tuple(_set_bits(form_bits(3, 1, 15).bits)) == (0, 1, 2, 5, 7, 12, 15)


# --- negative Pochhammer products ---------------------------------------------


def test_pochhammer_distinct_odd_parts():
    got = pochhammer_neg(1, 2, 6)
    expected = tuple(distinct_ap_count(1, 2, n) for n in range(7))
    assert got.coeffs == expected == (1, 1, 0, 1, 1, 1, 1)


def test_pochhammer_beyond_truncation_is_one():
    assert pochhammer_neg(5, 7, 4) == TruncSeriesZ.constant(1, 4)


def test_pochhammer_step_three():
    got = pochhammer_neg(1, 3, 3)
    expected = tuple(distinct_ap_count(1, 3, n) for n in range(4))
    assert got.coeffs == expected == (1, 1, 0, 0)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 40))
@settings(deadline=None, max_examples=40)
def test_pochhammer_matches_enumeration(a, b, n):
    series = pochhammer_neg(a, b, n)
    for e in range(n + 1):
        assert series.coeffs[e] == distinct_ap_count(a, b, e)


def mul_pochhammer_neg_by_factors(res, a, b):
    """Reference: multiply res in place by each factor (1 + q^c), c = a, a+b, ..."""
    for c in range(a, len(res), b):
        res[c:] = [x + y for x, y in zip(res[c:], res)]


@pytest.mark.parametrize("b", range(1, 13))
def test_euler_expansion_matches_factor_by_factor(b):
    rng = random.Random(b)
    for a in range(1, 13):
        for n in sorted({0, 1, a - 1, a, a + b - 1, a + b, 2 * a + b, 300}):
            starts = (
                [1] + [0] * n,
                list(eta_product(b, n).coeffs),
                [rng.randint(-99, 99) for _ in range(n + 1)],
            )
            for start in starts:
                want, got = start[:], start[:]
                # twice, as the product route applies it at i = k/2
                for _ in range(2):
                    mul_pochhammer_neg_by_factors(want, a, b)
                    _mul_pochhammer_neg(got, a, b)
                    assert got == want, (a, b, n, start[:3])


def test_pochhammer_rejects_bad_offsets():
    with pytest.raises(ParameterError):
        pochhammer_neg(0, 2, 5)
    with pytest.raises(ParameterError):
        pochhammer_neg(1, 0, 5)


# --- theta numerator -----------------------------------------------------------


def theta_exponent_count(k, i, e):
    """Directly count n >= 0 with k(n^2-n)/2 + in = e plus n >= 1 with
    k(n^2+n)/2 - in = e. Both exponent maps are increasing in n."""
    count = 0
    n = 0
    while True:
        v = k * (n * n - n) // 2 + i * n
        if v > e:
            break
        if v == e:
            count += 1
        n += 1
    n = 1
    while True:
        v = k * (n * n + n) // 2 - i * n
        if v > e:
            break
        if v == e:
            count += 1
        n += 1
    return count


def test_theta_small_supports():
    # exponents 0, 1, 2, 5, 7
    assert theta_sum(3, 1, 7).coeffs == (1, 1, 1, 0, 0, 1, 0, 1)
    # direct exponent evaluation: 0, 1, 7, 18 and 4, 13, 27
    assert theta_sum(5, 1, 12).coeffs == (1, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("k,i", [(3, 1), (5, 2), (7, 3), (11, 1)])
def test_theta_constant_term(k, i):
    assert theta_sum(k, i, 0).coeffs == (1,)


@given(st.integers(3, 12), st.data(), st.integers(0, 80))
@settings(deadline=None, max_examples=40)
def test_theta_counts_representations(k, data, n):
    i = data.draw(st.integers(1, k // 2))
    series = theta_sum(k, i, n)
    for e in range(n + 1):
        assert series.coeffs[e] == theta_exponent_count(k, i, e)


def test_theta_double_hits_when_i_is_half_k():
    # k - 2i = 0 collapses the two exponent families onto each other
    t = theta_sum(4, 2, 20)
    assert t.coeffs[2] == t.coeffs[8] == t.coeffs[18] == 2


def test_theta_rejects_out_of_range_i():
    with pytest.raises(ParameterError):
        theta_sum(5, 3, 10)
    with pytest.raises(ParameterError):
        theta_sum(5, 0, 10)
    with pytest.raises(ParameterError):
        theta_sum(2, 1, 10)


# --- the one exponent walk -------------------------------------------------------

ADMISSIBLE_16 = [(k, i) for k in range(3, 17) for i in range(1, k // 2 + 1)]


def test_form_exponents_order():
    # minus sign first at each m, exponents nondecreasing, tie at i = k/2
    assert list(form_exponents(5, 1, 20)) == [
        (1, 1, -1), (4, 1, +1), (7, 2, -1), (13, 2, +1), (18, 3, -1)
    ]
    assert list(form_exponents(4, 2, 8)) == [
        (2, 1, -1), (2, 1, +1), (8, 2, -1), (8, 2, +1)
    ]


@pytest.mark.parametrize("k,i", ADMISSIBLE_16)
def test_exponent_walk_users_match_closed_forms(k, i):
    # every user of the walk against its definition, evaluated directly
    # over a range of the summation index wide enough to pass the bound
    n = 20 * k + i
    d = k - 2 * i
    theta = [0] * (n + 1)
    for e in [k * (j * j - j) // 2 + i * j for j in range(0, n + 1)] + [
        k * (j * j + j) // 2 - i * j for j in range(1, n + 1)
    ]:
        if e <= n:
            theta[e] += 1
    assert theta_sum(k, i, n).coeffs == tuple(theta)
    assert tuple(_set_bits(form_bits(k, i, n).bits)) == tuple(e for e, c in enumerate(theta) if c % 2)

    witnesses = {}
    for m in range(1, n + 1):
        for sign in (-1, +1):
            e = (k * m * m + sign * m * d) // 2
            if e <= n:
                witnesses.setdefault(e, []).append((m, sign))
    exc = exceptional_set(SingularParams(k, i), n)
    assert exc == {e: tuple(pairs) for e, pairs in witnesses.items()}

    # (q^m; q^m) = sum over all integers j of (-1)^j q^(m j(3j-1)/2), m = i <= 8
    eta = [0] * (n + 1)
    for j in range(-n, n + 1):
        e = i * j * (3 * j - 1) // 2
        if e <= n:
            eta[e] += -1 if j % 2 else 1
    assert eta_product(i, n).coeffs == tuple(eta)

    pents = {j * (3 * j - 1) // 2 for j in range(-n, n + 1) if j}
    expected = sorted({0} | {e for e in pents if e <= n})
    assert tuple(_set_bits(form_bits(3, 1, n).bits)) == tuple(expected)

