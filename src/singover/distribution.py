"""Witness sequences and even/odd density counts for C-bar_{p,1}.

The doubly-exponential sequences a_{j+1} = a_j(3a_j + 1)/2 (even
variant) and a_{j+1} = a_j(3a_j - 1)/2 (odd variant) tile [1, X] with
intervals that each contain a parity witness, giving the exact counts
an explicit floor(nu/2) lower bound where nu is the last index with
a_nu <= X. A sequence is the tuple of its terms, exact big integers,
from the variant's first l; the even a_5 already overflows 64 bits.
"""

from __future__ import annotations

from . import tables
from .errors import ParameterError
from .params import SingularParams
from .parity import FIRST_ELL, _find_in_interval, _require_prime, _sign, interval


def mod3_invariant_holds(variant: str, terms: tuple[int, ...]) -> bool:
    """Each term lies in the class mod 3 its step gives it.

    2a' = a(3a+s) = s a (mod 3), so a' = -s a, from the first l's
    class: the even variant alternates 1, 2, 1, ..., the odd variant
    stays at 2.
    """
    s = _sign(variant)
    want = FIRST_ELL[variant] % 3
    for a in terms:
        if a % 3 != want:
            return False
        want = -s * want % 3
    return True


def chain_inequalities_hold(variant: str, terms: tuple[int, ...]) -> bool:
    """a_j <= c a_{j-1}^2 with c = 2 (even) or 3/2 (odd), checked as
    2 a_j <= 2c a_{j-1}^2: 2a' = 3a^2 + s a is at most 2c a^2."""
    two_c = 4 if _sign(variant) > 0 else 3
    return all(2 * cur <= two_c * prev * prev for prev, cur in zip(terms, terms[1:]))


def power_chain_bound_holds(variant: str, terms: tuple[int, ...]) -> bool:
    """Iterated form of the chain: a_j <= c^(e-1) a_1^e with e = 2^(j-1),
    for j >= 1, checked as 2^(e-1) a_j <= (2c)^(e-1) a_1^e."""
    s = _sign(variant)
    two_c = 4 if s > 0 else 3
    from_a1 = terms[1:] if s > 0 else terms  # even terms start at a_0
    for j, a in enumerate(from_a1, start=1):
        e = 2 ** (j - 1)
        if 2 ** (e - 1) * a > two_c ** (e - 1) * from_a1[0] ** e:
            return False
    return True


def build_sequence(variant: str, cutoff: int) -> tuple[int, ...]:
    """The terms from ``FIRST_ELL[variant]`` up to the cutoff X, in order.

    The step from a is the upper end of ``parity.interval(variant, a)``;
    the mod-3 residues then keep every generated interval eligible for
    its parity-witness guarantee.
    """
    _sign(variant)  # refuses an unknown variant
    first = FIRST_ELL[variant]
    if cutoff < first:
        raise ParameterError(f"cutoff {cutoff} is below the seed {first}")
    terms = [first]
    while True:
        nxt = interval(variant, terms[-1])[1]
        if nxt > cutoff:
            break
        terms.append(nxt)
    return tuple(terms)


def parity_census(p: int, cutoff: int) -> dict:
    """Count even and odd values of C-bar_{p,1}(n) for 1 <= n <= X.

    Both counts must dominate the floor(nu/2) bound coming from their
    witness sequence, which starts at the variant's first l, 4 (even)
    and 2 (odd). The recurrence increases, so these smallest first terms
    give the largest floors. p, and X against the even first term 4, are
    checked before the parity table, which costs O(X), is built. Returns
    the report: p, X, the two counts, the two nu, the two floors and
    whether each count dominates its floor; a false flag is a failed
    proven statement.
    """
    _require_prime(p)
    params = SingularParams(p, 1)
    # nu is the index of the last term <= X; the even terms are
    # a_0, a_1, ..., the odd terms a_1, a_2, ...
    nu_even = len(build_sequence("even", cutoff)) - 1
    nu_odd = len(build_sequence("odd", cutoff))
    odd_count = tables.parity_table(params, cutoff).window(1, cutoff).bit_count()
    even_count = cutoff - odd_count
    return {
        "p": p,
        "X": cutoff,
        "even_count": even_count,
        "odd_count": odd_count,
        "nu_even": nu_even,
        "nu_odd": nu_odd,
        "even_lower_bound": nu_even // 2,
        "odd_lower_bound": nu_odd // 2,
        "even_dominates": even_count >= nu_even // 2,
        "odd_dominates": odd_count >= nu_odd // 2,
    }


def interval_cover_check(variant: str, params: SingularParams, table) -> list[tuple[int, int]]:
    """Find the guaranteed parity witness in each sequence interval.

    Even variant searches [a_{2m}, a_{2m+1}] for even values, odd
    variant [2 a_j - 1, a_{j+1}] for odd values: the interval of each
    term in the first l's class mod 3 that the table covers in full, as
    only those carry the guarantee. A term's interval ends at the next
    term, so these are the terms up to the table's degree but the last.
    Each interval is the interval finder's for l = a_j, precondition
    included, and must yield a witness. A table that ends below the
    first interval's top would check none and is refused. Returns the
    pairs (l, n) of each l and its smallest witness n.
    """
    _sign(variant)  # refuses an unknown variant
    first = FIRST_ELL[variant]
    lo, hi = interval(variant, first)
    if table.trunc_degree < hi:
        raise ParameterError(
            f"table degree {table.trunc_degree} ends below the first {variant} "
            f"interval [{lo}, {hi}]; the cover would check no interval"
        )
    return [
        (a, _find_in_interval(variant, params, a, table))
        for a in build_sequence(variant, table.trunc_degree)[:-1]
        if a % 3 == first % 3
    ]
