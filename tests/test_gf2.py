"""Packed parity-series arithmetic against the exact integer path."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singover.errors import ParameterError
from singover.params import SingularParams
from singover.qseries import (
    TruncSeriesF2,
    TruncSeriesZ,
    _mul_bits,
    _set_bits,
    _spread,
    div,
    eta_product,
    form_bits,
    inv_f2,
    mul,
    mul_f2,
    partition_bits,
    reduce_mod2,
    theta_sum,
)
from singover.tables import parity_table


def test_reduce_mod2_eta():
    assert tuple(_set_bits(reduce_mod2(eta_product(1, 7)).bits)) == (0, 1, 2, 5, 7)


def test_reduce_mod2_kills_even_coefficients():
    assert reduce_mod2(TruncSeriesZ([0, 0, 0, 0])).bits == 0
    assert reduce_mod2(TruncSeriesZ([2, 2, 2])).bits == 0
    assert tuple(_set_bits(reduce_mod2(TruncSeriesZ([-1, -3, 4])).bits)) == (0, 1)


def test_mul_f2_identity_and_cancellation():
    one = TruncSeriesF2(1, 2)
    s = TruncSeriesF2(0b011, 2)
    assert mul_f2(one, s) == s
    # (1 + q)^2 = 1 + q^2 in characteristic 2
    assert tuple(_set_bits(mul_f2(s, s).bits)) == (0, 2)


def test_mul_f2_degree_mismatch():
    with pytest.raises(ParameterError, match="^truncation degrees differ: 2 vs 3$"):
        mul_f2(TruncSeriesF2(1, 2), TruncSeriesF2(1, 3))


def _pack16(coeffs):
    """Kronecker substitution q = 2^16 for coefficients in [0, 2^16)."""
    return int.from_bytes(b"".join(c.to_bytes(2, "little") for c in coeffs), "little")


def test_mul_f2_against_integer_path_bulk():
    # 1000 seeded random pairs at degree 512, with random integer lifts
    # of each bit pattern; the packed product must equal the reduction
    # of the exact integer product. The reference product is one big
    # integer multiply of the lifts packed in 16-bit lanes: a product
    # coefficient is at most 513 * 5 * 5 < 2^16, so no lane carries
    # into the next and lane e holds the exact coefficient of q^e.
    rng = random.Random(0x5E12)
    n = 512
    for _ in range(1000):
        sbits = rng.getrandbits(n + 1)
        tbits = rng.getrandbits(n + 1)
        lift_s = [((sbits >> e) & 1) + 2 * rng.randrange(3) for e in range(n + 1)]
        lift_t = [((tbits >> e) & 1) + 2 * rng.randrange(3) for e in range(n + 1)]
        fast = mul_f2(TruncSeriesF2(sbits, n), TruncSeriesF2(tbits, n))
        lanes = (_pack16(lift_s) * _pack16(lift_t)).to_bytes(4 * (n + 1), "little")
        low_bits = (b & 1 for b in lanes[0 : 2 * (n + 1) : 2])
        exact = TruncSeriesF2(sum(bit << e for e, bit in enumerate(low_bits)), n)
        assert fast == exact


@given(st.integers(0, 60), st.data())
@settings(deadline=None)
def test_mul_f2_matches_reduced_mul(n, data):
    a = data.draw(st.lists(st.integers(-5, 5), min_size=n + 1, max_size=n + 1))
    b = data.draw(st.lists(st.integers(-5, 5), min_size=n + 1, max_size=n + 1))
    s, t = TruncSeriesZ(a), TruncSeriesZ(b)
    assert mul_f2(reduce_mod2(s), reduce_mod2(t)) == reduce_mod2(mul(s, t))


@given(st.integers(0, 200), st.integers(0, 1 << 64))
def test_inv_f2_roundtrip(n, seed_bits):
    bits = (seed_bits | 1) & ((1 << (n + 1)) - 1)
    t = TruncSeriesF2(bits, n)
    prod = mul_f2(t, inv_f2(t))
    assert prod.bits == 1


def test_inv_f2_needs_unit():
    with pytest.raises(ParameterError, match="^parity inverse needs constant term 1$"):
        inv_f2(TruncSeriesF2(0b10, 3))


@pytest.mark.parametrize("k,i,n", [(3, 1, 300), (5, 1, 257), (7, 3, 128)])
def test_parity_table_matches_exact_quotient(k, i, n):
    exact = reduce_mod2(div(theta_sum(k, i, n), 1))
    assert parity_table(SingularParams(k, i), n) == exact


def test_window_f2_reads_lo_to_hi_and_refuses_past_the_end():
    s = TruncSeriesF2(0b1011010, 6)
    assert s.window(0, 6) == 0b1011010
    assert s.window(1, 4) == 0b1101
    assert s.window(6, 6) == 1
    assert s.window(2, 1) == 0
    with pytest.raises(ParameterError) as exc:
        s.window(3, 7)
    assert str(exc.value) == "table degree 6 does not cover the interval [3, 7]"
    # a negative start or an end before the empty window is no interval
    for lo, hi in ((-1, 2), (3, 1)):
        with pytest.raises(ParameterError) as exc:
            s.window(lo, hi)
        assert f"[{lo}, {hi}]" in str(exc.value)


# --- parity inputs built from exponent bits -----------------------------------

ADMISSIBLE_16 = [(k, i) for k in range(3, 17) for i in range(1, k // 2 + 1)]


@pytest.mark.parametrize("k,i", ADMISSIBLE_16)
def test_form_bits_is_the_reduced_theta_sum(k, i):
    # i = k/2 included: there every exponent comes twice and cancels
    for n in (0, 1, 50, 2000):
        assert form_bits(k, i, n) == reduce_mod2(theta_sum(k, i, n))


@pytest.mark.parametrize("n", [0, 1, 2, 7, 50, 2000])
def test_form_bits_31_is_the_reduced_eta_product(n):
    assert form_bits(3, 1, n) == reduce_mod2(eta_product(1, n))


def test_form_bits_rejects_bad_input():
    with pytest.raises(ParameterError):
        form_bits(4, 3, 10)
    with pytest.raises(ParameterError):
        form_bits(5, 1, -1)


def test_set_bits_ascending():
    assert _set_bits(0) == []
    assert _set_bits(1) == [0]
    assert _set_bits(1 << 100_000) == [100_000]
    rng = random.Random(0xB175)
    for width in (1, 7, 64, 65, 1000, 20_000):
        for _ in range(20):
            x = rng.getrandbits(width)
            expected = [e for e in range(width) if (x >> e) & 1]
            assert _set_bits(x) == expected


def _mul_bits_by_lowest_bit(x, y):
    """The carryless product by peeling the lowest set bit, one at a time."""
    if x.bit_count() > y.bit_count():
        x, y = y, x
    acc = 0
    while x:
        low = x & -x
        acc ^= y << (low.bit_length() - 1)
        x ^= low
    return acc


packed = st.one_of(
    st.integers(0, 1 << 300),
    st.sets(st.integers(0, 3000), max_size=30).map(lambda es: sum(1 << e for e in es)),
)


@given(packed, packed)
def test_mul_bits_matches_lowest_bit_loop(x, y):
    assert _mul_bits(x, y) == _mul_bits_by_lowest_bit(x, y)


# --- the GF(2) lift, with d = 2 (Newton) and d = 4 (Jacobi) ----------------------


def _spread_by_digits(x, step=2):
    """x(q^step), built one binary digit of x at a time."""
    out = []
    for digit in bin(x)[:1:-1]:  # bit 0 first
        out += (digit, *"0" * (step - 1))
    return int("".join(reversed(out)), 2)


def _inv_by_full_length_newton(t):
    """Newton inversion with one full-length product t*r^2 per doubling round."""
    r = 1
    prec = 1
    while prec < t.trunc_degree + 1:
        prec = min(2 * prec, t.trunc_degree + 1)
        mask = (1 << prec) - 1
        r = _mul_bits(t.bits & mask, _spread_by_digits(r)) & mask
    return r


@pytest.mark.parametrize("d", [2, 4])
def test_spread_spreads_every_bit(d):
    rng = random.Random(0x5B10 + d)
    # every byte value once, so every entry of every byte table is read
    cases = [0, 1, 1 << 100_000, int.from_bytes(bytes(range(256)), "little")]
    widths = (1, 2, 3, 7, 8, 9, 15, 16, 17, 64, 1000, 20_001)
    cases += [rng.getrandbits(w) for w in widths for _ in range(5)]
    for x in cases:
        assert _spread(x, d) == _spread_by_digits(x, d)


KERNEL_DEGREES = sorted(
    {0, 1, 2, 3, 10007} | {2**j + d for j in range(1, 13) for d in (-1, 0, 1)}
)


@pytest.mark.parametrize("n", KERNEL_DEGREES)
def test_inv_f2_matches_full_length_newton(n):
    rng = random.Random(n)
    units = [
        form_bits(3, 1, n),
        form_bits(5, 1, n),
        form_bits(13, 4, n),
        TruncSeriesF2(rng.getrandbits(n + 1) | 1, n),
    ]
    for t in units:
        assert inv_f2(t).bits == _inv_by_full_length_newton(t)


def test_partition_bits_matches_the_newton_inverse_at_every_small_degree():
    # the Jacobi lift against Euler's pentagonal exponents inverted by Newton
    for n in range(300):
        assert partition_bits(n) == inv_f2(form_bits(3, 1, n)), n


@pytest.mark.parametrize("n", [*KERNEL_DEGREES, 10**5, 10**6])
def test_partition_bits_matches_the_newton_inverse(n):
    # KERNEL_DEGREES holds 4^j - 1, 4^j and 4^j + 1, where the base-4
    # precisions turn
    assert partition_bits(n) == inv_f2(form_bits(3, 1, n))


@pytest.mark.parametrize("n", [*KERNEL_DEGREES, 10**5, 10**6])
def test_partition_bits_times_the_pentagonal_bits_is_one(n):
    # Euler's (q;q) mod 2 times the Jacobi lift, with no lift code on this side
    assert mul_f2(form_bits(3, 1, n), partition_bits(n)).bits == 1


def test_partition_bits_refuses_a_negative_degree():
    with pytest.raises(ParameterError, match="^truncation degree must be nonnegative$"):
        partition_bits(-1)
