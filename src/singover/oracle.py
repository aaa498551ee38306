"""Brute-force enumeration of singular overpartitions.

Ground truth for the series pipelines at small n. An overpartition here
is a non-increasing sequence of parts, none divisible by k, where the
first occurrence of a part value congruent to +-i (mod k) may carry an
overline. Per distinct part value that is one binary choice, so each
bare partition contributes 2^(number of distinct overlinable values).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OracleCapError
from .params import SingularParams

DEFAULT_CAP = 40
# Largest cap the command line accepts. Backtracking time grows about 3x
# per 6 degrees; checking every n <= 50 takes about 5 s (Python 3.11 on
# one Xeon core) when k > 50, so that every part is allowed, the slowest
# case.
MAX_CAP = 50


@dataclass(frozen=True)
class OverpartitionCount:
    params: SingularParams
    n: int
    count: int


def count_by_backtracking(params: SingularParams, n: int) -> int:
    """Direct recursion over part values, largest first.

    Walks every admissible bare partition once and multiplies in the
    overline factor value by value. Exponential in n; meant for small n.
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
            weight = 2 if params.overlinable(v) else 1
            with_v = 0
            for copies in range(1, remaining // v + 1):
                with_v += rec(remaining - copies * v, v - 1)
            total += weight * with_v
        return total

    return rec(n, n)


def count_by_dp(params: SingularParams, n: int) -> int:
    """Dynamic programming over allowed part values.

    Each admissible value v contributes the factor
    1 + w_v (q^v + q^2v + ...) with w_v = 2 when v is overlinable,
    folded into the table one value at a time.
    """
    if n < 0:
        return 0
    k = params.k
    table = [0] * (n + 1)
    table[0] = 1
    for v in range(1, n + 1):
        if v % k == 0:
            continue
        weight = 2 if params.overlinable(v) else 1
        # chain[e] = table[e - v] + table[e - 2v] + ... (old values only)
        chain = [0] * (n + 1)
        for e in range(v, n + 1):
            chain[e] = table[e - v] + chain[e - v]
        for e in range(v, n + 1):
            table[e] += weight * chain[e]
    return table[n]


def enumerate_overpartitions(
    params: SingularParams, n: int, cap: int = DEFAULT_CAP
) -> OverpartitionCount:
    """Count singular overpartitions of n by exhaustive enumeration.

    Refuses n beyond the cap outright rather than silently truncating;
    growth past that point makes enumeration the wrong tool.
    """
    if n > cap:
        raise OracleCapError(
            f"enumeration capped at n <= {cap}, asked for n = {n}; "
            "use a series pipeline for large n"
        )
    return OverpartitionCount(params, n, count_by_backtracking(params, n))
