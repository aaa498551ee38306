#!/usr/bin/env python3
"""Time the command table of ROADMAP item 1, each command in-process.

Each command runs through ``singover.cli.main`` with stdout captured
and the theta table store cleared before each run. The commands run
round-robin: each of --repeat passes runs every command once, in table
order, so a slow stretch of a shared host spreads over every row
instead of landing on one. The time kept is a command's best pass.
The JSON file written to --out holds, per command, the seconds and the
SHA-256 of its stdout, plus the Python version and the core count. Its
``import_seconds`` is the median, over 21 fresh ``python -I``
interpreters, of the time each takes to ``import singover.cli``: the
cost a ``singover`` command pays before any work. ``import_seconds_q1``
and ``import_seconds_q3`` are the quartiles of those 21 times, so that a
change of a millisecond can be read against their spread.
Standard library only.

    python scripts/bench_commands.py --out BENCH.json
    python scripts/bench_commands.py --shrink 100 --repeat 1 --out /tmp/b.json

--shrink D divides every degree cap by D (at least 1), for a quick run.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from singover import cli, tables

# (argv with {} for the degree cap, degree cap)
COMMANDS = [
    ("compute --k 5 --i 1 --n-max {}", 10_000),
    ("compute --k 5 --i 1 --n-max {} --source product", 10_000),
    ("compute --k 5 --i 1 --n-max {} --format csv", 10_000),
    ("verify --suite pipelines --k 5 --i 1 --n-max {}", 10_000),
    ("verify --suite lemma1 --k 5 --i 1 --n-max {}", 10_000),
    ("verify --suite oracle --k 13 --i 1 --n-max {}", 2_000),
    ("verify --suite special-forms --k 1 --n-max {}", 10_000),
    ("verify --suite parity-facts --n-max {}", 1_000_000),
    ("verify --suite intervals --p 5 --ell-max {}", 816),
    ("verify --suite exclusions --p 5 --ell-max {}", 1_000_000),
    ("density --p 5 --x {}", 1_000_000),
]
# fresh interpreters timed for import_seconds, as many as perfbench/run.py times
IMPORTS = 21


def run_once(argv):
    """Seconds and stdout of one run of ``cli.main(argv)`` from an empty store."""
    tables.clear_caches()
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    seconds = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {code}")
    return seconds, out.getvalue()


def import_seconds():
    """Seconds a fresh interpreter takes to ``import singover.cli`` from
    the sources this script imported, timed inside the child."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import singover.cli; print(time.perf_counter() - t)"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--repeat", type=int, default=3, help="passes over the commands, best kept")
    parser.add_argument("--shrink", type=int, default=1, help="divide every degree cap by this")
    args = parser.parse_args()
    if args.repeat < 1 or args.shrink < 1:
        parser.error("--repeat and --shrink must be >= 1")

    commands = [template.format(max(1, cap // args.shrink)) for template, cap in COMMANDS]
    passes = [[run_once(command.split()) for command in commands] for _ in range(args.repeat)]
    rows = []
    for command, runs in zip(commands, zip(*passes)):
        digests = {hashlib.sha256(out.encode()).hexdigest() for _, out in runs}
        if len(digests) != 1:
            raise SystemExit(f"{command}: stdout differs between runs")
        seconds = min(s for s, _ in runs)
        rows.append({"command": command, "seconds": round(seconds, 4),
                     "stdout_sha256": digests.pop()})
        print(f"{seconds:8.3f} s  {command}")

    q1, median, q3 = statistics.quantiles([import_seconds() for _ in range(IMPORTS)], n=4)
    report = {
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "repeat": args.repeat,
        "shrink": args.shrink,
        "import_seconds": round(median, 5),
        "import_seconds_q1": round(q1, 5),
        "import_seconds_q3": round(q3, 5),
        "commands": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
