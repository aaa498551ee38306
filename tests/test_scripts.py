"""The experiment scripts run at small sizes, with deterministic output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import singover

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(singover.__file__).resolve().parents[1])


def run_script(args):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize(
    "args, first_line",
    [
        (
            ["scripts/scan_progressions.py", "--p", "5", "--a-max", "12", "--x", "3000",
             "--min-hits", "5"],
            "# candidates for constant parity of C-bar_{5,1}(a n + b), a n + b <= 3000",
        ),
    ],
    ids=["scan_progressions"],
)
def test_script_runs_deterministically(args, first_line):
    first, second = run_script(args), run_script(args)
    assert first.returncode == 0, first.stderr
    assert first.stdout.startswith(first_line)
    assert second.returncode == 0 and second.stdout == first.stdout


def test_bench_commands_writes_its_report(tmp_path):
    out = tmp_path / "bench.json"
    done = run_script(
        ["scripts/bench_commands.py", "--shrink", "200", "--repeat", "2", "--out", str(out)]
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    assert report["python"] and report["cores"] >= 1
    q1, median, q3 = (report[f"import_seconds{end}"] for end in ("_q1", "", "_q3"))
    assert all(isinstance(value, float) for value in (q1, median, q3))
    assert 0 < q1 <= median <= q3
    rows = report["commands"]
    assert len(rows) == 11 and rows[0]["command"] == "compute --k 5 --i 1 --n-max 50"
    assert all(row["seconds"] >= 0 and len(row["stdout_sha256"]) == 64 for row in rows)
    assert len(done.stdout.splitlines()) == 11


@pytest.mark.parametrize(
    "args, message",
    [
        (["--x", "0"], "--x must be in [1, 1000000]"),
        (["--x", "-1"], "--x must be in [1, 1000000]"),
        (["--x", "1000001"], "--x must be in [1, 1000000]"),
        (["--a-max", "1"], "--a-max must be >= 2"),
        (["--min-hits", "1", "--a-max", "100", "--x", "50"], "--min-hits must be >= 2"),
        (["--p", "2", "--x", "50"], "modulus k must be >= 3, got 2"),
        (["--a-max", "2001", "--x", "1000000", "--min-hits", "2"], "--a-max must be <= 2000"),
        # degrees 0..10 in steps of 5 give at most 2 samples, of 4 at most 3
        (
            ["--a-max", "5", "--x", "10", "--min-hits", "3"],
            "--a-max must be <= 4: no class of a larger a has --min-hits samples",
        ),
        (
            ["--a-max", "2", "--x", "50", "--min-hits", "100"],
            "--a-max must be <= 0: no class of a larger a has --min-hits samples",
        ),
    ],
    ids=[
        "x-zero", "x-negative", "x-past-cap", "a-max-one", "min-hits-zero", "p-two",
        "a-max-past-cap", "a-max-past-min-hits", "min-hits-past-x",
    ],
)
def test_scan_progressions_refuses_bad_sizes(args, message):
    done = run_script(["scripts/scan_progressions.py", *args])
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.splitlines()[-1].endswith(f"error: {message}")


def test_scan_progressions_reads_the_largest_a_that_reaches_min_hits():
    # a = 4, b = 1 samples degrees 1, 5 and 9: three samples in 0..10
    done = run_script(
        ["scripts/scan_progressions.py", "--a-max", "4", "--x", "10", "--min-hits", "3"]
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("# candidates for constant parity")


def test_scan_progressions_counts_the_classes_it_screened():
    # a class (a, b) over degrees 0..x holds len(range(b or a, x + 1, a))
    # samples; each one with --min-hits of them is screened, and each
    # survivor line is one constant class among those
    a_max, x, min_hits = 24, 2000, 20
    done = run_script(
        ["scripts/scan_progressions.py", "--p", "7", "--a-max", str(a_max), "--x", str(x),
         "--min-hits", str(min_hits)]
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    screened = sum(
        len(range(b or a, x + 1, a)) >= min_hits for a in range(2, a_max + 1) for b in range(a)
    )
    survivors = [line for line in lines if " always " in line]
    assert survivors and lines[1:-1] == survivors
    assert lines[-1] == (
        f"# {len(survivors)} of {screened} classes with >= {min_hits} samples survived"
    )
