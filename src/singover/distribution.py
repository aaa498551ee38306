"""Witness sequences and even/odd density counts for C-bar_{p,1}.

The doubly-exponential sequences a_{j+1} = a_j(3a_j + 1)/2 (even
variant) and a_{j+1} = a_j(3a_j - 1)/2 (odd variant) tile [1, X] with
intervals that each contain a parity witness, giving the exact counts
an explicit floor(nu/2) lower bound where nu is the last index with
a_nu <= X. Terms are exact big integers; a_5 from seed 4 already
overflows 64 bits.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tables
from .errors import ParameterError
from .params import SingularParams
from .parity import (
    FIRST_ELL,
    _require_prime,
    find_even_in_interval,
    find_odd_in_interval,
    interval,
)

# Index of the first term: the even variant is written a_0, a_1, ...,
# the odd variant a_1, a_2, ...
_START_INDEX = {"even": 0, "odd": 1}


@dataclass(frozen=True)
class WitnessSequence:
    """Terms of the recursive sequence that stay at or below the cutoff."""

    variant: str
    seed: int
    terms: tuple[int, ...]
    cutoff: int

    @property
    def start_index(self) -> int:
        return _START_INDEX[self.variant]

    @property
    def nu(self) -> int:
        """Largest index j with a_j <= cutoff."""
        return self.start_index + len(self.terms) - 1

    def mod3_invariant_holds(self) -> bool:
        """Even variant: even-indexed terms are 1 mod 3 (odd-indexed 2);
        odd variant: every term is 2 mod 3."""
        if self.variant == "odd":
            return all(a % 3 == 2 for a in self.terms)
        return all(
            a % 3 == (1 if j % 2 == 0 else 2) for j, a in enumerate(self.terms)
        )

    def chain_inequalities_hold(self) -> bool:
        """a_j <= 2 a_{j-1}^2 (even) resp. a_j <= (3/2) a_{j-1}^2 (odd)."""
        for prev, cur in zip(self.terms, self.terms[1:]):
            if self.variant == "even":
                if cur > 2 * prev * prev:
                    return False
            else:
                if 2 * cur > 3 * prev * prev:
                    return False
        return True

    def power_chain_bound_holds(self) -> bool:
        """Iterated form of the chain: a_j <= c^(2^(j-1)-1) a_1^(2^(j-1))
        with c = 2 (even) or 3/2 (odd), for stored indices j >= 1.
        Checked in exact integer arithmetic."""
        for offset, a in enumerate(self.terms):
            j = self.start_index + offset
            if j < 1:
                continue
            a1 = self.terms[1 - self.start_index]
            e = 2 ** (j - 1)
            if self.variant == "even":
                if a > 2 ** (e - 1) * a1**e:
                    return False
            else:
                if 2 ** (e - 1) * a > 3 ** (e - 1) * a1**e:
                    return False
        return True


def _check_seed(variant: str, seed: int) -> None:
    interval(variant, seed)  # refuses an unknown variant
    if seed < 2 or seed % 3 != FIRST_ELL[variant] % 3:
        raise ParameterError(
            f"{variant} variant needs a seed >= 2 with seed = "
            f"{FIRST_ELL[variant] % 3} mod 3, got {seed}"
        )


def build_sequence(variant: str, seed: int, cutoff: int) -> WitnessSequence:
    """Iterate the recurrence from the seed until the next term passes X.

    The step from a is the upper end of ``parity.interval(variant, a)``.

    The even variant needs seed = 1 mod 3, the odd variant seed = 2
    mod 3, both >= 2; the mod-3 residues then keep every generated
    interval eligible for its parity-witness guarantee.
    """
    _check_seed(variant, seed)
    if cutoff < seed:
        raise ParameterError(f"cutoff {cutoff} is below the seed {seed}")
    terms = [seed]
    while True:
        nxt = interval(variant, terms[-1])[1]
        if nxt > cutoff:
            break
        terms.append(nxt)
    return WitnessSequence(variant, seed, tuple(terms), cutoff)


def parity_census(p: int, cutoff: int) -> dict:
    """Count even and odd values of C-bar_{p,1}(n) for 1 <= n <= X.

    Both counts must dominate the floor(nu/2) bound coming from their
    witness sequence, which starts at the variant's first l, 4 (even)
    and 2 (odd). The recurrence increases, so these smallest seeds give
    the largest floors. p and X >= 4 are checked before the parity
    table, which costs O(X), is built. Returns the report: p, X, the
    two counts, the two nu, the two floors and whether each count
    dominates its floor; a false flag is a failed proven statement.
    """
    _require_prime(p)
    params = SingularParams(p, 1)
    if cutoff < FIRST_ELL["even"]:
        raise ParameterError(f"X must be >= {FIRST_ELL['even']}, got {cutoff}")
    nu_even = build_sequence("even", FIRST_ELL["even"], cutoff).nu
    nu_odd = build_sequence("odd", FIRST_ELL["odd"], cutoff).nu
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


def interval_cover_check(
    variant: str,
    seed: int,
    cutoff: int,
    params: SingularParams,
    table,
) -> list[tuple[int, int]]:
    """Find the guaranteed parity witness in each sequence interval.

    Even variant searches [a_{2m}, a_{2m+1}] for even values, odd
    variant [2 a_j - 1, a_{j+1}] for odd values, for every term at or
    below the cutoff. Only intervals the table covers in full carry the
    guarantee, so the first interval whose upper end lies past the
    table ends the walk. Each interval is the interval finder's for
    l = a_j, precondition included, and must yield a witness. Returns
    the pairs (l, n) of each l and its smallest witness n.
    """
    _check_seed(variant, seed)
    finder = find_even_in_interval if variant == "even" else find_odd_in_interval
    witnesses = []
    a = seed
    while a <= cutoff:
        nxt = interval(variant, a)[1]
        if nxt > table.trunc_degree:
            break
        witnesses.append((a, finder(params, a, table)))
        a = interval(variant, nxt)[1] if variant == "even" else nxt
    return witnesses
