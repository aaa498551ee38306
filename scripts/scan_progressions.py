#!/usr/bin/env python3
"""Exploratory scan for arithmetic progressions with constant parity.

Looks for pairs (a, b) such that C-bar_{p,1}(a n + b) has the same
parity for every sampled n with a n + b <= X. This is a heuristic
screen only: a progression surviving the scan is a candidate, not a
theorem, and deeper scans routinely kill candidates. The last line
counts the classes screened (those with at least --min-hits samples)
and the survivors among them, to weigh the survivors against chance.

    python scripts/scan_progressions.py --p 5 --a-max 24 --x 20000
"""

import argparse

from singover.checks import CAP_PARITY
from singover.errors import ParameterError
from singover.params import SingularParams
from singover.tables import parity_table

# The largest --a-max. The scan takes a(a-1)/2 slices, so its cost grows
# as a_max^2 once a passes X. At --a-max 2000 and --min-hits 2 it took
# 1.3 s at --x 1000000, and 1.6 s at --x 3000, the slowest of the X
# measured from 2001 to 6000, which prints 0.63 million lines, mostly
# of two-sample classes (Python 3.11, 2 cores).
A_MAX = 2000


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=int, default=5)
    parser.add_argument("--a-max", type=int, default=24)
    parser.add_argument("--x", type=int, default=20_000)
    parser.add_argument(
        "--min-hits", type=int, default=50, help="smallest sample size to report"
    )
    args = parser.parse_args()
    if not 1 <= args.x <= CAP_PARITY:
        parser.error(f"--x must be in [1, {CAP_PARITY}]")
    if args.a_max < 2:
        parser.error("--a-max must be >= 2")
    if args.min_hits < 2:
        parser.error("--min-hits must be >= 2")
    try:
        params = SingularParams(args.p, 1)
    except ParameterError as exc:
        parser.error(str(exc))
    if args.a_max > A_MAX:
        parser.error(f"--a-max must be <= {A_MAX}")
    # the fullest class of a, b = 1, holds (x - 1) // a + 1 samples
    if args.a_max > (top := (args.x - 1) // (args.min_hits - 1)):
        parser.error(f"--a-max must be <= {top}: no class of a larger a has --min-hits samples")

    table = parity_table(params, args.x)
    # the parity of degree n is character n, read once for every progression
    digits = format(table.bits, "b").zfill(args.x + 1)[::-1]

    print(f"# candidates for constant parity of C-bar_{{{args.p},1}}(a n + b), "
          f"a n + b <= {args.x} (heuristic, no proof)")
    screened = survived = 0
    for a in range(2, args.a_max + 1):
        for b in range(a):
            sample = digits[b if b > 0 else a :: a]
            count = len(sample)
            if count < args.min_hits:
                continue
            screened += 1
            if "1" not in sample or "0" not in sample:
                survived += 1
                parity = "even" if "1" not in sample else "odd"
                print(f"a={a:<3} b={b:<3} always {parity} over {count} samples")
    # a class of s samples is constant by chance about 2^(1-s) of the time,
    # so the survivors are weighed against the classes screened
    print(f"# {survived} of {screened} classes with >= {args.min_hits} samples survived")


if __name__ == "__main__":
    main()
