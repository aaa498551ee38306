"""Truncated formal power series over the integers and over GF(2).

Everything here is exact: coefficients are arbitrary-precision Python
integers, parity series are bit sequences packed into a single int.
A series truncated at degree N stores the N+1 coefficients of q^0..q^N;
products and quotients of truncations agree with the truncation of the
exact infinite-series result through degree N.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from math import isqrt
from operator import add, sub

from .errors import ParameterError, require_degree
from .params import SingularParams


class TruncSeriesZ:
    """Integer power series truncated at a fixed degree.

    ``coeffs[n]`` is the coefficient of q^n; the truncation degree is
    ``len(coeffs) - 1``. Instances are immutable by convention; all
    operations return new series.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ParameterError("a truncated series needs at least the q^0 coefficient")

    @classmethod
    def constant(cls, value: int, trunc_degree: int) -> "TruncSeriesZ":
        require_degree(trunc_degree)
        return cls((value,) + (0,) * trunc_degree)

    @property
    def trunc_degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncSeriesZ) and self.coeffs == other.coeffs

    def truncate(self, trunc_degree: int) -> "TruncSeriesZ":
        require_degree(trunc_degree)
        if trunc_degree > self.trunc_degree:
            raise ParameterError(
                f"cannot extend truncation degree {self.trunc_degree} to {trunc_degree}"
            )
        return TruncSeriesZ(self.coeffs[: trunc_degree + 1])

    def __repr__(self):
        shown = list(self.coeffs[:8])
        tail = "..." if len(self.coeffs) > 8 else ""
        return f"TruncSeriesZ(N={self.trunc_degree}, coeffs={shown}{tail})"


class TruncSeriesF2:
    """Parity series truncated at a fixed degree, bits packed into one int.

    Bit n of ``bits`` is the coefficient of q^n reduced mod 2. The packed
    form makes convolution a word-parallel shift-XOR.
    """

    __slots__ = ("bits", "trunc_degree")

    def __init__(self, bits: int, trunc_degree: int):
        require_degree(trunc_degree)
        if bits < 0 or bits >> (trunc_degree + 1):
            raise ParameterError("bit sequence extends past the truncation degree")
        self.bits = bits
        self.trunc_degree = trunc_degree

    def window(self, lo: int, hi: int) -> int:
        """Bits of degrees lo..hi packed into one int, degree lo + j at bit j.

        hi = lo - 1 is the empty window, 0.
        """
        if lo < 0 or hi < lo - 1:
            raise ParameterError(f"window [{lo}, {hi}] needs 0 <= lo <= hi + 1")
        if hi > self.trunc_degree:
            raise ParameterError(
                f"table degree {self.trunc_degree} does not cover the interval [{lo}, {hi}]"
            )
        return (self.bits >> lo) & ((1 << (hi - lo + 1)) - 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncSeriesF2)
            and self.bits == other.bits
            and self.trunc_degree == other.trunc_degree
        )

    def __repr__(self):
        head = _set_bits(self.bits)[:10]
        return f"TruncSeriesF2(N={self.trunc_degree}, support={head}...)"


def _require_same_degree(s, t):
    if s.trunc_degree != t.trunc_degree:
        raise ParameterError(f"truncation degrees differ: {s.trunc_degree} vs {t.trunc_degree}")


def mul(s: TruncSeriesZ, t: TruncSeriesZ) -> TruncSeriesZ:
    """Product of two series with equal truncation degrees.

    The factor with fewer nonzero terms drives the outer loop, so
    sparse-by-dense products cost O(terms * N). Its +-1 terms, all of
    an eta product's, add or subtract the shifted other factor with no
    multiply; other coefficients take the multiply-add.
    """
    _require_same_degree(s, t)
    n = s.trunc_degree
    a, b = s.coeffs, t.coeffs
    if sum(1 for c in a if c) > sum(1 for c in b if c):
        a, b = b, a
    res = [0] * (n + 1)
    for j, c in enumerate(a):
        if not c:
            continue
        if c == 1:
            res[j:] = map(add, res[j:], b)
        elif c == -1:
            res[j:] = map(sub, res[j:], b)
        else:
            res[j:] = [r + c * v for r, v in zip(res[j:], b)]
    return TruncSeriesZ(res)


def div(s: TruncSeriesZ, t: TruncSeriesZ, head=()) -> TruncSeriesZ:
    """Quotient r with r * t == s through the truncation degree.

    Forward substitution: r[n] = (s[n] - sum_{j>=1} t[j] r[n-j]) / t[0],
    restricted to the nonzero divisor terms, so a divisor with T terms
    costs O(N * T) additions. The constant term of t must be +-1;
    quotients then stay integral with no divisibility checks needed.

    head, the quotient's own coefficients through some degree up to N
    (a table held from a smaller request), is kept and the substitution
    resumes after it; the quotient is prefix-stable, so the result is
    that of a fresh division. A head past degree N is refused.

    The substitution runs in blocks of ``_BLOCK`` degrees over a
    quotient padded with ``_BLOCK`` leading zeros (see ``_div_extend``).
    A +-1 term at least the block's width back reads only finished
    coefficients or the zeros, so it enters a whole block as one slice
    added in C; only the +-1 terms below the width and the other
    coefficients take an interpreted step per degree.
    """
    _require_same_degree(s, t)
    r = list(head)
    if len(r) > len(s.coeffs):
        raise ParameterError(f"head longer than the quotient: {len(r)} > {len(s.coeffs)} terms")
    _div_extend(r, s.coeffs, t.coeffs)
    return TruncSeriesZ(r)


# Width of the output blocks of ``_div_extend``. At N = 10^4 widths from
# 32 to 128 measured alike within noise, and the per-degree loop took
# 1.4-2x as long (Python 3.11, 2 cores).
_BLOCK = 64


def _div_extend(r: list, sc, tc) -> None:
    """Extend the quotient prefix r of sc / tc in place to len(sc) terms.

    r[n] depends only on sc[0..n] and tc[0..n], so a quotient computed
    at a lower truncation degree is the prefix of every higher one and
    the substitution resumes where r ends; r = [] gives the whole
    quotient. sc and tc are coefficient sequences of equal length.

    While it runs, r carries ``_BLOCK`` leading zeros: degree n sits at
    r[n + _BLOCK], and a divisor term past the degree reads a zero
    instead of needing a guard. The new degrees go in blocks of
    ``_BLOCK``, the first at the old len(r); a block of width w spans
    the degrees d .. d + w - 1. A +-1 divisor term j < w is near and
    takes the per-degree loop. One with w <= j <= d + w - 1 is far: it
    reads only degrees d - j .. d + w - 1 - j, all below d, final or in
    the zeros, so the far -1 terms are summed into the block in one
    ``map(sum, zip(*slices))`` pass and the far +1 terms in another.
    Every coefficient other than +-1 takes the per-degree loop too, up
    to the degree. For (q;q) at N = 10^4 that leaves about 12
    interpreted steps per degree instead of about 160.
    """
    t0 = tc[0]
    if t0 not in (1, -1):
        raise ParameterError(f"divisor constant term must be +1 or -1, got {t0}")
    start, top = len(r), len(sc)
    nz = [(j, c) for j, c in enumerate(tc) if c and j > 0]
    minus = [j for j, c in nz if c == -1]
    plus = [j for j, c in nz if c == 1]
    other = [(j, c) for j, c in nz if c not in (1, -1)]
    r[:0] = [0] * _BLOCK
    r += [0] * (top - start)
    # lo and hi index the padded r: the block's degrees are d = lo - _BLOCK
    # up to hi - 1 - _BLOCK, and hi - lo is its width w
    for lo in range(start + _BLOCK, top + _BLOCK, _BLOCK):
        hi = min(lo + _BLOCK, top + _BLOCK)
        base = list(sc[lo - _BLOCK : hi - _BLOCK])
        m, p = bisect_left(minus, hi - lo), bisect_left(plus, hi - lo)
        far_minus = minus[m : bisect_left(minus, hi - _BLOCK, m)]
        far_plus = plus[p : bisect_left(plus, hi - _BLOCK, p)]
        if far_minus:
            base = list(map(add, base, map(sum, zip(*[r[lo - j : hi - j] for j in far_minus]))))
        if far_plus:
            base = list(map(sub, base, map(sum, zip(*[r[lo - j : hi - j] for j in far_plus]))))
        near_minus, near_plus = minus[:m], plus[:p]
        for e in range(lo, hi):
            acc = base[e - lo]
            for j in near_minus:
                acc += r[e - j]
            for j in near_plus:
                acc -= r[e - j]
            for j, c in other:
                if j > e - _BLOCK:
                    break
                acc -= c * r[e - j]
            r[e] = acc if t0 == 1 else -acc
    del r[:_BLOCK]


def form_exponents(k: int, i: int, bound: int):
    """Yield (e, m, sign) for every e = (k m^2 + sign m(k-2i))/2 <= bound.

    m runs over m >= 1 and sign over -1, then +1. With 1 <= i <= k/2
    the exponents come in nondecreasing order: the minus branch is
    increasing in m and each plus value lies between its minus value
    and the next one, so the walk stops at the first minus value past
    the bound. The pair (3, 1) gives the generalized pentagonals and
    (3m, m) the exponents m j(3j -+ 1)/2 of (q^m; q^m).
    """
    d = k - 2 * i
    m = 1
    while True:
        lo = (k * m * m - m * d) // 2
        if lo > bound:
            return
        yield lo, m, -1
        hi = lo + m * d
        if hi <= bound:
            yield hi, m, +1
        m += 1


def eta_product(m: int, trunc_degree: int) -> TruncSeriesZ:
    """The product (q^m; q^m)_inf truncated at the given degree.

    Expanded through the pentagonal series
    sum_{j in Z} (-1)^j q^(m*j(3j-1)/2), so the coefficients lie in
    {-1, 0, 1} and construction costs O(sqrt(N/m)) updates.
    """
    if m < 1:
        raise ParameterError(f"eta product step must be >= 1, got {m}")
    require_degree(trunc_degree)
    coeffs = [0] * (trunc_degree + 1)
    coeffs[0] = 1
    for e, j, _ in form_exponents(3 * m, m, trunc_degree):
        coeffs[e] += -1 if j % 2 else 1
    return TruncSeriesZ(coeffs)


def _mul_pochhammer_neg(res: list, a: int, b: int) -> None:
    """Multiply the coefficient list in place by (-q^a; q^b)_inf, truncated.

    Euler's identity (Andrews, *The Theory of Partitions*, 1976,
    Cor. 2.2) with z = q^a and base q^b gives

        (-q^a; q^b)_inf = sum_{n>=0} q^(b n(n-1)/2 + a n) / (q^b; q^b)_n,

    so res times it is res plus the shifts of y_n = res / (q^b; q^b)_n.
    y_n is y_(n-1) divided by (1 - q^(bn)): a running sum along each
    residue class mod bn. Term n starts at degree e_n = b n(n-1)/2 + a n,
    so y_n is needed only through degree N - e_n, N = len(res) - 1, and
    the sum stops at the first e_n > N. About sqrt(2N/b) terms of O(N)
    each, so O(N sqrt(N/b)) in all.
    """
    top = len(res)
    y = res[:]
    n = 1
    e = a
    while e < top:
        del y[top - e:]
        d = b * n
        # only residue classes with at least two members change
        for s in range(min(d, len(y) - d)):
            y[s::d] = accumulate(y[s::d])
        res[e:] = map(add, res[e:], y)
        e += d + a
        n += 1


def pochhammer_neg(a: int, b: int, trunc_degree: int) -> TruncSeriesZ:
    """The product (-q^a; q^b)_inf = prod_{j>=0} (1 + q^(a+jb)), truncated.

    Expanded by Euler's identity, one term per n with
    b n(n-1)/2 + a n <= N (see ``_mul_pochhammer_neg``).
    """
    if a < 1 or b < 1:
        raise ParameterError(f"offsets must be >= 1, got a={a}, b={b}")
    require_degree(trunc_degree)
    res = [1] + [0] * trunc_degree
    _mul_pochhammer_neg(res, a, b)
    return TruncSeriesZ(res)


def theta_sum(k: int, i: int, trunc_degree: int) -> TruncSeriesZ:
    """Theta numerator of the singular overpartition generating function.

    sum_{n>=0} q^(k(n^2-n)/2 + in) + sum_{n>=1} q^(k(n^2+n)/2 - in),
    truncated: 1 plus one term per ``form_exponents`` value. The
    coefficient of q^e counts the representations of e by the two
    exponent families; for i < k/2 every positive exponent occurs at
    most once, while i = k/2 makes the families coincide and each
    exponent is hit twice.
    """
    SingularParams(k, i)  # validates (k, i)
    require_degree(trunc_degree)
    coeffs = [0] * (trunc_degree + 1)
    coeffs[0] = 1
    for e, _, _ in form_exponents(k, i, trunc_degree):
        coeffs[e] += 1
    return TruncSeriesZ(coeffs)


def form_bits(k: int, i: int, trunc_degree: int) -> TruncSeriesF2:
    """The theta numerator mod 2, built from its exponents as bits.

    1 plus q^e for every ``form_exponents`` value e, each XORed into one
    bit: equal to reduce_mod2(theta_sum(k, i, N)) without the dense
    integer list. At i = k/2 every exponent comes twice and its bits
    cancel, as the coefficient 2 requires. The pair (3, 1) gives the
    generalized pentagonals, so form_bits(3, 1, N) is (q;q) mod 2.
    """
    SingularParams(k, i)  # validates (k, i)
    require_degree(trunc_degree)
    buf = bytearray(trunc_degree // 8 + 1)
    buf[0] = 1
    for e, _, _ in form_exponents(k, i, trunc_degree):
        buf[e >> 3] ^= 1 << (e & 7)
    return TruncSeriesF2(int.from_bytes(buf, "little"), trunc_degree)


def reduce_mod2(s: TruncSeriesZ) -> TruncSeriesF2:
    """Reduce every coefficient mod 2 into a packed parity series."""
    bits = int("".join(["01"[c & 1] for c in reversed(s.coeffs)]), 2)
    return TruncSeriesF2(bits, s.trunc_degree)


def _set_bits(x: int) -> list[int]:
    """Positions of the set bits of x >= 0, in ascending order.

    One pass of str.find over the reversed binary string, so no step
    touches the big integer itself.
    """
    digits = bin(x)[:1:-1]  # bit 0 first, without the "0b" prefix
    out = []
    e = digits.find("1")
    while e >= 0:
        out.append(e)
        e = digits.find("1", e + 1)
    return out


def _mul_bits(x: int, y: int) -> int:
    """Carryless (GF(2)) product of two bit-packed polynomials.

    Shift-XOR over the set bits of the sparser operand, listed by one
    ``_set_bits`` scan; each XOR is word-parallel on the underlying big
    integer.
    """
    if x.bit_count() > y.bit_count():
        x, y = y, x
    acc = 0
    for e in _set_bits(x):
        acc ^= y << e
    return acc


def mul_f2(s: TruncSeriesF2, t: TruncSeriesF2) -> TruncSeriesF2:
    """Parity-series product; equals reduce_mod2 of the integer product."""
    _require_same_degree(s, t)
    n = s.trunc_degree
    mask = (1 << (n + 1)) - 1
    return TruncSeriesF2(_mul_bits(s.bits, t.bits) & mask, n)


def _spread_tables(d: int) -> list[bytes]:
    """Byte tables for bytes.translate: table c maps a byte b to byte c of
    its spread b(q^d), which is b's binary digits read in base 2^d.

    The spreads of 0..255 are built one bit at a time: those of
    2^j..2^(j+1)-1 are those of 0..2^j-1 with bit d*j set.
    """
    spreads = [0]
    for j in range(8):
        high = 1 << d * j
        spreads += [v | high for v in spreads]
    return [bytes([v >> 8 * c & 255 for v in spreads]) for c in range(d)]


_SPREAD = {d: _spread_tables(d) for d in (2, 4)}


def _spread(x: int, d: int) -> int:
    """The spread x(q^d), bit n to bit d*n: the d-th power of x over GF(2).

    d is 2 or 4. Byte j of x spreads to bytes dj..dj+d-1, one
    ``bytes.translate`` over the whole of x per output byte lane,
    interleaved by extended-slice assignment.
    """
    xb = x.to_bytes((x.bit_length() + 7) // 8, "little")
    out = bytearray(d * len(xb))
    for c, table in enumerate(_SPREAD[d]):
        out[c::d] = xb.translate(table)
    return int.from_bytes(out, "little")


def _lift(exponents, d: int, trunc_degree: int) -> TruncSeriesF2:
    """The inverse P = 1/t mod 2 of a unit t, from the exponents of t^(d-1).

    In characteristic 2, t^d = t(q^d), so 1/t = t^(d-1)(q) * P(q^d).
    The ascending exponents (all <= N) of S = t^(d-1) are split once
    into d-sections, S = sum_c q^c S_c(q^d). If r = P mod q^ceil(m/d),
    then P = sum_c q^c spread(S_c * r) mod q^m, where each S_c * r is a
    shift-XOR over the bits of S_c taken modulo q^ceil(m/d). The
    precisions N+1, ceil((N+1)/d), ... down to 1 are taken from the
    bottom, so the last round ends at N+1 with no overshoot.
    """
    sections = [[] for _ in range(d)]
    for e in exponents:
        sections[e % d].append(e // d)
    precs = []
    m = trunc_degree + 1
    while m > 1:
        precs.append(m)
        m = (m + d - 1) // d
    r = 1  # P mod q^m, with m = 1
    for prec in reversed(precs):
        low = (prec + d - 1) // d  # r has exactly this precision
        mask = (1 << low) - 1
        acc = 0
        for c, exps in enumerate(sections):
            prod = 0
            for j in exps[: bisect_left(exps, low)]:
                prod ^= r << j
            acc ^= _spread(prod & mask, d) << c
        r = acc & ((1 << prec) - 1)
    return TruncSeriesF2(r, trunc_degree)


def partition_bits(trunc_degree: int) -> TruncSeriesF2:
    """The partition generating function 1/(q;q)_inf mod 2, truncated.

    Jacobi's identity (Andrews, *The Theory of Partitions*, 1976, ch. 2)
    gives

        (q;q)_inf^3 = sum_{n>=0} (-1)^n (2n+1) q^(n(n+1)/2),

    so (q;q)^3 is T = sum_{n>=0} q^(n(n+1)/2) mod 2, and ``_lift``
    with d = 4 takes 1/(q;q) = T(q) * P(q^4) from the few bits of T.
    """
    require_degree(trunc_degree)
    # the partial sums of 0, 1, 2, ... are n(n+1)/2, which is <= N
    # exactly for n < (isqrt(8N+1) + 1) // 2
    triangular = accumulate(range((isqrt(8 * trunc_degree + 1) + 1) // 2))
    return _lift(triangular, 4, trunc_degree)


def inv_f2(t: TruncSeriesF2) -> TruncSeriesF2:
    """Multiplicative inverse of a parity series with constant term 1.

    ``_lift`` with d = 2, where t^(d-1) is t itself: Newton's step
    r <- t * r^2 with t split once as t = A(q^2) + q*B(q^2).

    No table is built through it: ``partition_bits`` gives 1/(q;q) mod 2
    to every parity table, and ``checks.parity_facts`` compares it with
    the inverse of the pentagonal bits taken here.
    """
    if not t.bits & 1:
        raise ParameterError("parity inverse needs constant term 1")
    return _lift(_set_bits(t.bits), 2, t.trunc_degree)
