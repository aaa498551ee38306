"""Parity structure of singular overpartition counts.

The backbone is a mod-2 identity: multiplying the generating function by
(q;q) leaves the sparse theta numerator, whose positive exponents are
exactly the values (k m^2 +- m(k-2i))/2 with m >= 1, as walked by
``qseries.form_exponents``. Consequences implemented here:

* ``exceptional_set`` maps each of those exponents to its (m, sign)
  witnesses.
* ``convolution_mismatches`` lists every degree at which the table
  times (q;q), one sparse GF(2) product, differs from the theta
  numerator mod 2 (``qseries.form_bits``), whose bit n is the parity of
  n's (m, sign) witness count. The lemma 1 suite reports that one list
  twice: whole, and per n from degree 1 on, where the identity is
  stated. ``convolution_parity_check`` asks it about a single n.
* ``_residue_witness`` answers "is T = k m^2 +- m(k-2i) for some
  m >= 1, and for which i <= k/2" with one integer square root.
  ``exclusion_counterexamples`` asks it for every l of the form
  exclusions l(3l +- 1) and counts a hit at i = 1. ``on_form`` asks
  whether that i is the caller's own; ``checks.intervals`` uses it to
  skip an l whose target is on the form: the interval guarantee covers
  only the targets off it.
* ``interval`` gives each variant's interval, [l, l(3l+1)/2] (even)
  or [2l-1, l(3l-1)/2] (odd). Its ``_sign`` is the one place a variant
  name is checked. With s = +1 (even) or -1 (odd), the upper end
  l(3l+s)/2 is also the next term of the variant's witness sequence,
  and twice it is the exclusion target l(3l+s). ``FIRST_ELL`` holds the
  first l of each variant, where the exclusion scan, the interval
  checks and the witness sequences start.
* ``find_in_intervals`` is the one interval finder. For a run of l it
  gives each l's interval and the smallest degree n of the variant's
  parity there, or None. It complements the table's bits once for the
  even variant, so both variants look for the lowest set bit at or
  past each low end: the proof's degrees begin there, so the smallest
  witness lies just past it, and a table that ends inside an interval
  still answers when the witness lies before its end. If none does, a
  deeper table may still hold one. ``checks.intervals`` and
  ``distribution.parity_census`` pass it their runs;
  ``find_even_in_interval`` and ``find_odd_in_interval`` ask it about
  one l. It only finds: whether the guarantee covers l, and whether a
  None is a failure, is the caller's to decide.

Caveat worth knowing: for even k with i = k/2 the two signs coincide,
every exceptional exponent has two witnesses and the convolution is even
there. Odd on the exceptional set therefore holds for i < k/2 only; the
per-n check compares with the witness count's parity and holds for every
admissible (k, i).
"""

from __future__ import annotations

import math

from . import qseries as qs
from .errors import ParameterError
from .params import SingularParams

# Each variant's sign s in l(3l+s), and its first l: the smallest l >= 2
# in its class mod 3 (l = 1 for even, l = 2 for odd), the classes where
# the p-exclusions hold.
_SIGN = {"even": 1, "odd": -1}
FIRST_ELL = {"even": 4, "odd": 2}


def _sign(variant: str) -> int:
    """The variant's sign s, or ParameterError for an unknown variant."""
    if variant not in _SIGN:
        raise ParameterError(f"variant must be 'even' or 'odd', got {variant!r}")
    return _SIGN[variant]


def interval(variant: str, ell: int) -> tuple[int, int]:
    """The variant's interval (lo, hi) at l: [l, l(3l+1)/2] for even,
    [2l-1, l(3l-1)/2] for odd. hi is the witness sequence's step from
    l, and 2 hi = l(3l+s) the target the exclusions keep off the form."""
    s = _sign(variant)
    return ell if s > 0 else 2 * ell - 1, ell * (3 * ell + s) // 2


def exceptional_set(params: SingularParams, bound: int) -> dict[int, tuple]:
    """Each n <= bound on the form, mapped to its (m, sign) witnesses.

    Witnesses come in ``form_exponents`` order, sign being -1 or +1;
    an n off the form has no key.
    """
    if bound < 0:
        raise ParameterError("bound must be nonnegative")
    witnesses = {}
    for e, m, sign in qs.form_exponents(params.k, params.i, bound):
        witnesses[e] = witnesses.get(e, ()) + ((m, sign),)
    return witnesses


def convolution_parity_check(params: SingularParams, n: int, table) -> bool:
    """Check the pentagonal convolution parity at a single positive n.

    Compares the table's first n+1 values times (q;q) with the theta
    coefficient of q^n mod 2, bit n of ``qseries.form_bits``. That is
    the parity of n's witness count: for i < k/2 odd on the exceptional
    set and even off it; at i = k/2 every member has two witnesses and
    its bits cancel.
    """
    if n < 1:
        raise ParameterError(f"the convolution identity is about n >= 1, got {n}")
    if table.trunc_degree < n:
        raise ParameterError(f"table degree {table.trunc_degree} does not cover n = {n}")
    return n not in convolution_mismatches(params, table.truncate(n))


def convolution_mismatches(params: SingularParams, table) -> list[int]:
    """Wholesale form of the convolution check over the whole table.

    Multiplies the table series by (q;q) mod 2 and compares against the
    theta numerator mod 2, coefficient by coefficient. Reduction mod 2
    is a ring homomorphism, so both factors are reduced first and
    multiplied in packed GF(2) arithmetic, with the same result as
    reducing their integer product. (q;q) and the theta numerator are
    built mod 2 straight from their exponents by ``qseries.form_bits``;
    only the exact table goes through reduce_mod2. Returns every
    mismatching degree in increasing order; the list is empty when the
    identity holds through the truncation degree.
    """
    n = table.trunc_degree
    lhs = qs.mul_f2(qs.form_bits(3, 1, n), qs.reduce_mod2(table))
    rhs = qs.form_bits(params.k, params.i, n)
    return qs._set_bits(lhs.bits ^ rhs.bits)


def first_convolution_mismatch(params: SingularParams, table) -> int | None:
    """The first degree ``convolution_mismatches`` returns, or None."""
    bad = convolution_mismatches(params, table)
    return bad[0] if bad else None


def _residue_witness(k: int, target: int) -> int | None:
    """The i <= k/2 with target = k m^2 +- m(k-2i) for some m >= 1, or
    None.

    With d = k - 2i in [0, k-2], target lies in [k m^2 - (k-2)m,
    k m^2 + (k-2)m]. These ranges are disjoint for distinct m (the next
    one starts 4m + 2 higher), so at most one (i, m) takes the target,
    and k m(m-1) < target < k(m+1)^2 leaves m = isqrt(target // k) or
    one more. That m fixes +-d = target/m - k m, and d fixes i.
    """
    r = math.isqrt(target // k)
    for m in (r, r + 1):
        if m < 1 or target % m:
            continue
        d = abs(target // m - k * m)
        if d <= k - 2 and (k - d) % 2 == 0:
            return (k - d) // 2
    return None


def on_form(k: int, i: int, target: int) -> bool:
    """Whether target = k m^2 +- m(k-2i) for some m >= 1."""
    return _residue_witness(k, target) == i


# Miller-Rabin to these bases is exact below the bound (Sorenson and
# Webster, Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for 5 <= p < _PRIME_BOUND, p not one of
    the bases (a base divisible by p fails); an even p fails at base 2."""
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s d, d odd
    d = (p - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    """Raise ParameterError unless p is a prime >= 5 below _PRIME_BOUND."""
    if p >= _PRIME_BOUND:
        raise ParameterError(
            f"p must be below {_PRIME_BOUND}, where the prime test is exact; got {p}"
        )
    if p < 5 or p not in _PRIME_BASES and not _is_prime(p):
        raise ParameterError(f"p must be a prime >= 5, got {p}")


def exclusion_counterexamples(p: int, ell_max: int, variant: str) -> list[int]:
    """All l <= ell_max in the admissible residue class failing exclusion.

    The even variant asks that l(3l+1), l = 1 mod 3, and the odd variant
    that l(3l-1), l = 2 mod 3, is not p m^2 +- m(p-2) for any m >= 1.
    Both hold for every prime p >= 5, so the expected result is the
    empty list; each l costs one integer square root in
    ``_residue_witness``, and a hit counts only at residue i = 1. An
    ell_max below the variant's first l, which would check no l, is
    refused.
    """
    s = _sign(variant)
    _require_prime(p)
    first = FIRST_ELL[variant]
    if ell_max < first:
        raise ParameterError(f"ell_max must be >= {first} for {variant}, got {ell_max}")
    # a miss (None) stops at the truth test, before any comparison
    return [
        l
        for l in range(first, ell_max + 1, 3)
        if (i := _residue_witness(p, l * (3 * l + s))) and i == 1
    ]


def find_in_intervals(variant: str, ells, table) -> list[tuple]:
    """(l, lo, hi, n) for each l of the run ells, a sequence: the
    variant's interval [lo, hi] = ``interval(variant, l)`` and its
    smallest n of the variant's parity, or None.

    The table is cut once at the run's reach, the hi of its largest l or
    the table's degree N if that is less, and its bits are complemented
    once for the even variant. Both variants then look for a set bit:
    the lowest one at or past lo, read off the bits shifted down by lo.
    Past N no bit is set, so only [lo, min(hi, N)] counts. A witness
    there is the interval's smallest, whatever lies past N. With none
    there n is None, both when the interval runs past N and when it is
    covered.
    """
    s = _sign(variant)
    # hi grows with l, so the largest l reaches furthest
    top = max(ells, default=0)
    mask = (1 << (min(top * (3 * top + s) // 2, table.trunc_degree) + 1)) - 1
    bits = table.bits & mask
    if s > 0:
        bits ^= mask
    rows = []
    for ell in ells:
        if ell < 2:
            raise ParameterError(f"l must be >= 2, got {ell}")
        # interval(variant, l), inline: a call per l would cost a third
        # of the scan
        lo = ell if s > 0 else 2 * ell - 1
        hi = ell * (3 * ell + s) // 2
        rest = bits >> lo
        n = lo + (rest & -rest).bit_length() - 1
        rows.append((ell, lo, hi, n if rest and n <= hi else None))
    return rows


def find_even_in_interval(ell: int, table) -> int | None:
    """Smallest n in [l, l(3l+1)/2] whose bit in the parity table is 0."""
    return find_in_intervals("even", (ell,), table)[0][3]


def find_odd_in_interval(ell: int, table) -> int | None:
    """Smallest n in [2l-1, l(3l-1)/2] whose bit in the parity table is 1."""
    return find_in_intervals("odd", (ell,), table)[0][3]
