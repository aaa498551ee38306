#!/usr/bin/env python3
"""Closed-loop benchmark of the ``singover`` command line, run in-process.

    python3 perfbench/run.py --workload exact_cold --seed 1 --seconds 35 --trace 0

Run from the repository root. One process and one thread call
``singover.cli.main(argv)`` with one request in flight, stdout and
stderr captured to buffers, until ``--seconds`` have passed and at
least 100 requests are done, always finishing the current round. Every
reply is checked outside the timed region by checks.py, in a child
process fed over a pipe; a reply that does not check out counts as
failed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
program's public functions (see spans.py), serves a fixed number of
rounds, writes the spans under perfbench/results/ and prints the
per-layer metrics. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS, rounds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_REQUESTS = 100  # so that at least 10 requests lie beyond the 90th percentile
SETUP_IMPORTS = 21
PIPE_CHUNK = 1 << 16


def load_program():
    """Import the package from this checkout's sources, never from elsewhere."""
    if not (SRC / "singover" / "cli.py").is_file():
        raise ImportError(f"no singover sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from singover import cli, tables

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"singover was imported from {cli.__file__}, not {SRC}")
    return cli, tables


def import_seconds() -> float:
    """Time for a fresh interpreter to ``import singover.cli``, measured
    inside the child."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import singover.cli; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout)


class CheckerProcess:
    """checks.py in a child process. The checks parse megabyte replies and
    build big integers; run here, they would set the peak RSS that
    ``peak_rss_mb`` reports for the program."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(checks.__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )

    def check(self, req, rc: int, out: str) -> tuple:
        nbytes = len(out) if out.isascii() else len(out.encode())
        fields = [req.argv, req.kind, req.k, req.i, req.degree, req.known_fault]
        pipe = self.proc.stdin
        pipe.write(json.dumps([fields, rc, nbytes]).encode() + b"\n")
        for at in range(0, len(out), PIPE_CHUNK):  # no whole copy of the reply here
            pipe.write(out[at : at + PIPE_CHUNK].encode())
        pipe.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError(f"the checker process ended with code {self.proc.wait()}")
        return tuple(json.loads(answer))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)


def call(cli, argv) -> tuple:
    """One request: (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), elapsed


class Tally:
    """Attempted and failed requests; ``correct`` stays true while every
    failure is the documented known fault."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self.reasons = {}

    def add(self, status: str, reason: str) -> None:
        self.attempted += 1
        if status != checks.OK:
            self.failed += 1
            self.correct = self.correct and status == checks.KNOWN_FAULT
            self.reasons[reason] = self.reasons.get(reason, 0) + 1


def percentile(sorted_values, q) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli, tables = load_program()
    except ImportError as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        recorder.install()
    # Imports are timed between requests, spread evenly over the run, so
    # that setup_s samples the same machine states as the requests do.
    import_times = []

    checker = CheckerProcess()
    tally = Tally()
    latencies, degrees = [], 0
    tables_seen = {}  # (route, k, i) -> degrees requested since the caches were cleared
    repeats = covered = 0
    stream = rounds(workload, args.seed)
    started = time.perf_counter()
    done_rounds = 0
    try:
        while True:
            if args.trace:
                if done_rounds == workload.trace_rounds:
                    break
            elif time.perf_counter() - started >= args.seconds and tally.attempted >= MIN_REQUESTS:
                break
            if workload.clear == "round":
                tables.clear_caches()
                tables_seen.clear()
            for req in next(stream):
                if workload.clear == "request":
                    tables.clear_caches()
                    tables_seen.clear()
                seen = tables_seen.setdefault(req.table, set())
                repeats += req.degree in seen
                covered += req.degree not in seen and any(d > req.degree for d in seen)
                seen.add(req.degree)
                if recorder:
                    recorder.request = tally.attempted
                else:
                    so_far = time.perf_counter() - started
                    due = min(SETUP_IMPORTS, 1 + int(SETUP_IMPORTS * so_far / args.seconds))
                    while len(import_times) < due:
                        import_times.append(import_seconds())
                rc, out, elapsed = call(cli, req.argv)
                tally.add(*checker.check(req, rc, out))
                latencies.append(elapsed)
                degrees += req.degree + 1
            done_rounds += 1
    finally:
        checker.close()

    degrees_per_s = degrees / sum(latencies)
    for reason, count in sorted(tally.reasons.items()):
        print(f"failed x{count}: {reason}")
    print(f"{args.workload} seed={args.seed} rounds={done_rounds} requests={tally.attempted} "
          f"wall_s={time.perf_counter() - started:.2f} degrees_per_s={degrees_per_s:.1f} "
          f"repeat_share={repeats / tally.attempted:.3f} covered_share={covered / tally.attempted:.3f}")

    if recorder:
        recorder.uninstall()
        out_dir = Path(__file__).resolve().parent / "results"
        out_dir.mkdir(exist_ok=True)
        recorder.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
        metrics = recorder.metrics()
    else:
        while len(import_times) < SETUP_IMPORTS:
            import_times.append(import_seconds())
        ordered = sorted(latencies)
        metrics = {
            "req_p50_ms": {"value": statistics.median(ordered) * 1e3, "unit": "ms"},
            "req_p90_ms": {"value": percentile(ordered, 0.9) * 1e3, "unit": "ms"},
            "degrees_per_s": {"value": degrees_per_s, "unit": "degrees/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
            "setup_s": {"value": statistics.median(import_times), "unit": "s"},
        }
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
