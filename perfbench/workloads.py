"""Seeded request streams for the three benchmark workloads.

A workload is an endless sequence of rounds; a round is a fixed mix of
requests whose parameters are drawn from ``random.Random`` seeded by the
workload name and the ``--seed`` value. Runs always finish whole rounds,
so every run attempts the same mix of operations, and the share of the
one known-faulty request type is the same in every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# Degree caps of the command line (exact tables, parity tables).
CAP_EXACT = 10_000
CAP_PARITY = 100_000

PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# Parity degrees: X for density, ell for intervals (top degree
# ell(3 ell + 1)/2, from 19 895 to 99 202). With every degree near the
# 10^5 cap, latencies lay within 20% of each other, so req_p90_ms
# followed the machine's jitter and spread by 0.29 over ten seeds.
# Degrees spread over a fifth of the cap up to the cap give the tail a
# fixed make-up: the largest tables.
DENSITY_X = (20_000, CAP_PARITY)
INTERVALS_ELL = (115, 257)

# Rounds are stratified: every round covers the same strata of k, N and p,
# and the seed only picks within each stratum. Costs vary several-fold
# across k and N, so unstratified draws made the run medians depend on
# the seed.
# A product table costs about N^2 / k, so each k stratum is paired with
# its own N stratum, small k with small N: every round then has the same
# cost profile. With the pairs shuffled, req_p50_ms on exact_cold spread
# by 0.12 (IQR / median) over ten seeds, against 0.075 for degrees_per_s.
PRODUCT_K_STRATA = ((3, 4), (5, 6, 7), (8, 9, 10), (11, 12, 13))
PRODUCT_N_STRATA = ((1000, 1249), (1250, 1499), (1500, 1749), (1750, 2000))
THETA_N_STRATA = ((5000, 6249), (6250, 7499), (7500, 8749), (8750, CAP_EXACT))

# The warm session serves four fixed families. Per family and session it
# asks for seven distinct compute degrees (multiples of 50, one per
# stratum) and three distinct lemma1 degrees (25 mod 50, so never a
# compute degree). No request repeats an earlier table exactly, so the
# number of table misses is the same in every session.
SESSION_PAIRS = ((3, 1), (5, 2), (7, 3), (13, 1))
ORACLE_N_STRATA = ((27, 28), (33, 34))


@dataclass(frozen=True)
class Request:
    """One ``singover`` command line plus what the checks need to know."""

    argv: tuple[str, ...]
    kind: str  # compute | lemma1 | oracle | density | intervals
    k: int
    i: int
    degree: int  # N of the table the request asks for
    known_fault: bool = False

    @property
    def table(self) -> tuple:
        """Which memoized table family the request reads: (route, k, i)."""
        if self.kind in ("density", "intervals"):
            return ("parity", self.k, self.i)
        return ("product" if "product" in self.argv else "theta", self.k, self.i)


@dataclass(frozen=True)
class Workload:
    name: str
    clear: str  # "request": caches cleared before each request; "round": before each round
    trace_rounds: int  # fixed length of a traced run, so its counts repeat exactly
    make_round: Callable[[random.Random], list]


def _compute(k, i, n, source="theta") -> Request:
    argv = ("compute", "--k", str(k), "--i", str(i), "--n-max", str(n))
    if source != "theta":
        argv += ("--source", source)
    return Request(argv, "compute", k, i, n)


def _lemma1(k, i, n, known_fault=False) -> Request:
    argv = ("verify", "--suite", "lemma1", "--k", str(k), "--i", str(i), "--n-max", str(n))
    return Request(argv, "lemma1", k, i, n, known_fault)


# The requests that hit the known per-n convolution fault at i = k/2, two
# per session at distinct N. Their inputs never depend on the seed, so
# they fail identically in every run.
KNOWN_FAULTS = (_lemma1(4, 2, 1000, known_fault=True), _lemma1(4, 2, 1050, known_fault=True))


def _oracle(k, i, n) -> Request:
    argv = ("verify", "--suite", "oracle", "--k", str(k), "--i", str(i), "--n-max", str(n))
    return Request(argv, "oracle", k, i, n)


def _density(p, x) -> Request:
    return Request(("density", "--p", str(p), "--x", str(x)), "density", p, 1, x)


def _intervals(p, ell) -> Request:
    argv = ("verify", "--suite", "intervals", "--p", str(p), "--ell-max", str(ell))
    return Request(argv, "intervals", p, 1, ell * (3 * ell + 1) // 2)


def _admissible_i(rng: random.Random, k: int) -> int:
    return rng.randint(1, (k - 1) // 2)


def _exact_cold_round(rng: random.Random) -> list:
    """Four product and four theta tables, one per k and N stratum."""
    reqs = []
    for ks, (n_lo, n_hi), (lo, hi) in zip(PRODUCT_K_STRATA, PRODUCT_N_STRATA, THETA_N_STRATA):
        k = rng.choice(ks)
        reqs.append(_compute(k, _admissible_i(rng, k), rng.randint(n_lo, n_hi), "product"))
        k = rng.randint(3, 13)
        reqs.append(_compute(k, _admissible_i(rng, k), rng.randint(lo, hi)))
    return reqs


def _strata(rng: random.Random, lo: int, hi: int, count: int) -> list:
    """One draw from each of ``count`` equal strata of [lo, hi], shuffled."""
    width = (hi - lo + 1) / count
    picks = [rng.randint(lo + int(s * width), lo + int((s + 1) * width) - 1) for s in range(count)]
    rng.shuffle(picks)
    return picks


def _parity_cold_round(rng: random.Random) -> list:
    """One census and one interval suite per prime and per degree
    stratum, in seeded order."""
    xs = _strata(rng, *DENSITY_X, len(PRIMES))
    ells = _strata(rng, *INTERVALS_ELL, len(PRIMES))
    density = [_density(p, x) for p, x in zip(PRIMES, xs)]
    intervals = [_intervals(p, ell) for p, ell in zip(PRIMES, ells)]
    rng.shuffle(density)
    rng.shuffle(intervals)
    return [req for pair in zip(density, intervals) for req in pair]


def _warm_session_round(rng: random.Random) -> list:
    """One session of 50 requests; caches are cleared before it starts."""
    reqs = []
    for k, i in SESSION_PAIRS:
        reqs += [_compute(k, i, 1000 + 1250 * s + 50 * rng.randrange(25)) for s in range(7)]
        reqs += [_lemma1(k, i, 525 + 800 * s + 50 * rng.randrange(16)) for s in range(3)]
        reqs += [_oracle(k, i, rng.randint(lo, hi)) for lo, hi in ORACLE_N_STRATA]
    rng.shuffle(reqs)
    step = len(reqs) // len(KNOWN_FAULTS) + 1
    for slot, req in enumerate(KNOWN_FAULTS):
        reqs.insert(slot * step + step // 2, req)
    return reqs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact_cold", "request", 18, _exact_cold_round),
        Workload("parity_cold", "request", 24, _parity_cold_round),
        Workload("warm_session", "round", 5, _warm_session_round),
    )
}


def rounds(workload: Workload, seed: int):
    """Endless rounds of requests; the same seed gives the same stream."""
    rng = random.Random(f"{workload.name}:{seed}")
    while True:
        yield workload.make_round(rng)


def request_list(name: str, seed: int, n_rounds: int) -> list:
    stream = rounds(WORKLOADS[name], seed)
    return [req for _ in range(n_rounds) for req in next(stream)]
