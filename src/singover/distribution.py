"""Witness sequences and even/odd density counts for C-bar_{p,1}.

The doubly-exponential sequences a_{j+1} = a_j(3a_j + 1)/2 (even
variant) and a_{j+1} = a_j(3a_j - 1)/2 (odd variant) tile [1, X] with
intervals that each contain a parity witness, giving the exact counts
an explicit floor(nu/2) lower bound where nu is the last index with
a_nu <= X. A sequence is the tuple of its terms, exact big integers,
from the variant's first l; the even a_5 already overflows 64 bits.
The census checks that chain: each sequence's mod-3 classes and growth
bounds, and a witness in each of its intervals inside [1, X].
"""

from __future__ import annotations

from . import tables
from .errors import ParameterError
from .params import SingularParams
from .parity import FIRST_ELL, _require_prime, _sign, find_in_intervals, interval


def _steps_hold(variant: str, terms: tuple[int, ...]) -> bool:
    """The proof steps of a witness sequence, one term at a time.

    With s the variant's sign and c = 2 (even) or 3/2 (odd):

    * the mod-3 class: 2a' = a(3a+s) = s a (mod 3), so a' = -s a, from
      the first l's class; the even variant alternates 1, 2, 1, ...,
      the odd variant stays at 2;
    * the power bound a_j <= c^(e-1) a_1^e with e = 2^(j-1), for j >= 1,
      checked as 2^(e-1) a_j <= (2c)^(e-1) a_1^e;
    * the chain a_j <= c a_{j-1}^2, checked as 2 a_j <= 2c a_{j-1}^2:
      2a' = 3a^2 + s a is at most 2c a^2.

    The power bound is the chain iterated, so it is checked first: after
    the chain it could never fail.
    """
    s = _sign(variant)
    two_c = 4 if s > 0 else 3
    want = FIRST_ELL[variant] % 3
    prev = a1 = None
    # the even terms are a_0, a_1, ..., the odd terms a_1, a_2, ...
    for j, a in enumerate(terms, start=0 if s > 0 else 1):
        if a % 3 != want:
            return False
        want = -s * want % 3
        if j == 1:  # a_1 is its own power bound
            a1 = a
        elif j > 1:
            e = 2 ** (j - 1)
            if 2 ** (e - 1) * a > two_c ** (e - 1) * a1**e:
                return False
        if prev is not None and 2 * a > two_c * prev * prev:
            return False
        prev = a
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
    whether each floor is proven and met: the sequence passes
    ``_steps_hold``, each of its intervals inside [1, X] holds its
    witness, and the count is at least the floor. A false flag is a
    failed proven statement; it raises no exception. For a prime p the
    exclusions keep every term's target off the form, so the census
    reads each interval without asking about the hypothesis.
    """
    _require_prime(p)
    params = SingularParams(p, 1)
    even_terms = build_sequence("even", cutoff)
    odd_terms = build_sequence("odd", cutoff)
    table = tables.parity_table(params, cutoff)
    odd_count = table.window(1, cutoff).bit_count()
    even_count = cutoff - odd_count
    # nu is the index of the last term <= X; the even terms are
    # a_0, a_1, ..., the odd terms a_1, a_2, ...
    nu_even = len(even_terms) - 1
    nu_odd = len(odd_terms)

    def proven(variant: str, terms: tuple[int, ...]) -> bool:
        # the interval of each term in the first l's class mod 3 but the
        # last ends at the next term, inside [1, X], and holds a witness
        run = [a for a in terms[:-1] if a % 3 == terms[0] % 3]
        return _steps_hold(variant, terms) and all(
            n is not None for *_, n in find_in_intervals(variant, run, table)
        )

    return {
        "p": p,
        "X": cutoff,
        "even_count": even_count,
        "odd_count": odd_count,
        "nu_even": nu_even,
        "nu_odd": nu_odd,
        "even_lower_bound": nu_even // 2,
        "odd_lower_bound": nu_odd // 2,
        "even_dominates": even_count >= nu_even // 2 and proven("even", even_terms),
        "odd_dominates": odd_count >= nu_odd // 2 and proven("odd", odd_terms),
    }
