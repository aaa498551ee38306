"""Combinatorial counts of singular overpartitions, independent of the series.

The object is the one Andrews' product formula counts. Parts are
positive integers not divisible by k. A part value v carries one
overline mark per residue among +i, -i (mod k) that it meets: none, or
one, or, for even k with i = k/2 where the two residues coincide, two
distinguishable marks. Each mark goes on at most one copy of v and each
copy carries at most one mark, so c copies of a value with m marks can
be marked in sum_{j <= min(m, c)} C(m, j) ways: 2 ways for one mark,
and 3 (one copy) or 4 (two or more) for two marks. That is the factor
(1 + q^v)^m / (1 - q^v) of the formula.

``dp_table`` is the oracle: one dynamic-programming pass over the part
values gives the whole table C-bar(0..n), against which the series
tables are checked. ``count_by_backtracking`` walks every bare partition
of n instead; it is exponential in n and serves as the small-n
cross-check of the DP. ``enumerate_overpartitions`` runs it for one n
and refuses n > 40.
"""

from __future__ import annotations

from operator import add

from .errors import ParameterError, require_degree
from .params import SingularParams

# Largest cap the command line accepts. The DP table costs about n^2
# big-integer additions; at n = 2000 it takes 0.2-0.25 s (Python 3.11
# on one Xeon core), for (3, 1) as for k > n, where every part is allowed.
MAX_CAP = 2000


def _marks(params: SingularParams, v: int) -> int:
    """Overline marks of part value v: one per residue +i, -i it meets."""
    r = v % params.k
    return (r == params.i) + (r == params.k - params.i)


def count_by_backtracking(params: SingularParams, n: int) -> int:
    """Direct recursion over part values, largest first.

    Walks every admissible bare partition once and multiplies in the
    marking count value by value. Exponential in n; meant for small n.
    """
    if n < 0:
        return 0
    k = params.k

    def rec(remaining: int, max_part: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for v in range(min(remaining, max_part), 0, -1):
            if v % k == 0:
                continue
            m = _marks(params, v)
            one = rec(remaining - v, v - 1)
            more = 0
            for copies in range(2, remaining // v + 1):
                more += rec(remaining - copies * v, v - 1)
            # one copy takes no mark or one of the m; two or more copies
            # take any subset of the m <= 2 marks
            total += (1 + m) * one + (1 << m) * more
        return total

    return rec(n, n)


def dp_table(params: SingularParams, n: int) -> list[int]:
    """C-bar(0..n) in one pass over the allowed part values.

    Each value v is folded into the table in two steps: its unmarked
    copies, any number of them, multiply by 1 / (1 - q^v); each of its
    marks is one more copy used at most once, as in a partition into
    distinct parts, and multiplies by (1 + q^v). Both steps are slice
    updates, the first one block of v degrees at a time.
    """
    require_degree(n)
    table = [1] + [0] * n
    for v in range(1, n + 1):
        if v % params.k == 0:
            continue
        # table[e] += table[e - v] in increasing e; each block of v
        # degrees reads the block below it, already updated
        for lo in range(v, n + 1, v):
            table[lo : lo + v] = map(add, table[lo : lo + v], table[lo - v : lo])
        for _ in range(_marks(params, v)):
            table[v:] = map(add, table[v:], table[: n + 1 - v])
    return table


def count_by_dp(params: SingularParams, n: int) -> int:
    """C-bar(n), the last entry of ``dp_table``."""
    return dp_table(params, n)[n] if n >= 0 else 0


def enumerate_overpartitions(params: SingularParams, n: int) -> int:
    """C-bar(n) by exhaustive enumeration, ``count_by_backtracking``.

    Refuses n > 40 outright rather than running exponential time;
    ``dp_table`` is the tool past that point.
    """
    if n > 40:
        raise ParameterError(
            f"enumeration is capped at n <= 40, asked for n = {n}; use dp_table for large n"
        )
    return count_by_backtracking(params, n)
