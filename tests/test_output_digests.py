"""Byte-identical output: a fixed request set against recorded digests.

Each command line in ``REQUESTS`` is served in-process, and the SHA-256
of its stdout, the SHA-256 of its stderr and its exit code must equal
the entry recorded in ``output_digests.json`` beside this file. The set
covers ``compute`` from both sources, every ``verify`` suite at small
sizes, ``density``, malformed command lines and all three formats, so a
change to any report's bytes shows here.

When a report is meant to change, record the digests again and say why
in the change:

    PYTHONPATH=src python tests/test_output_digests.py > tests/output_digests.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path

from singover import cli

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "output_digests.json"
README = HERE.parent / "README.md"
README_EXAMPLE = ("compute", "--k", "3", "--i", "1", "--n-max", "4")
# argparse wraps its usage text to the terminal width, read from COLUMNS
COLUMNS = "80"


def _formats(*argv):
    return [(*argv, "--format", fmt) for fmt in ("json", "csv", "plain")]


REQUESTS = [
    README_EXAMPLE,
    *_formats("compute", "--k", "5", "--i", "2", "--n-max", "60"),
    *_formats("compute", "--k", "4", "--i", "2", "--n-max", "40", "--source", "product"),
    *(
        ("compute", "--k", k, "--i", i, "--n-max", "500", "--source", source)
        for k, i in (("3", "1"), ("7", "3"), ("10", "5"), ("13", "1"))
        for source in ("theta", "product")
    ),
    ("compute", "--k", "6", "--i", "3", "--n-max", "0"),
    *_formats("verify", "--suite", "oracle", "--k", "7", "--i", "2", "--n-max", "30"),
    ("verify", "--suite", "oracle", "--k", "12", "--i", "6", "--n-max", "200"),
    ("verify", "--suite", "pipelines", "--k", "5", "--i", "1", "--n-max", "300"),
    ("verify", "--suite", "special-forms", "--n-max", "100", "--format", "plain"),
    ("verify", "--suite", "special-forms", "--n-max", "100", "--format", "json"),
    *_formats("verify", "--suite", "parity-facts", "--n-max", "2000"),
    *_formats("verify", "--suite", "lemma1", "--k", "4", "--i", "2", "--n-max", "500"),
    ("verify", "--suite", "lemma1", "--k", "13", "--i", "1", "--n-max", "2875"),
    ("verify", "--suite", "lemma1", "--k", "13", "--i", "6", "--n-max", "300", "--format", "csv"),
    *_formats("verify", "--suite", "exclusions", "--p", "7", "--ell-max", "400"),
    *_formats("verify", "--suite", "intervals", "--p", "13", "--ell-max", "40"),
    ("verify", "--suite", "intervals", "--p", "5", "--ell-max", "120"),
    ("verify", "--suite", "intervals", "--p", "47", "--ell-max", "257"),
    # the largest l: the request whose parity table shrinks most
    ("verify", "--suite", "intervals", "--p", "5", "--ell-max", "816"),
    ("verify", "--suite", "intervals", "--p", "10000019", "--ell-max", "20"),
    *_formats("verify", "--suite", "all"),
    *_formats("density", "--p", "5", "--x", "5000"),
    ("density", "--p", "7", "--x", "100000"),
    # refused values
    ("density", "--p", "13", "--x", "3"),
    ("density", "--p", "9", "--x", "100"),
    ("verify", "--suite", "lemma1", "--k", "5", "--i", "1", "--n-max", "0"),
    ("verify", "--suite", "pipelines", "--n-max", "10"),
    # malformed command lines
    ("compute", "--k", "3", "--i", "1"),
    ("verify", "--suite", "nonesuch"),
    ("density", "--p", "5", "--x", "ten"),
    # options that were deleted
    ("verify", "--suite", "intervals", "--p", "5", "--ell-max", "20", "--mode", "strict"),
    ("density", "--p", "5", "--x", "100", "--seed-even", "7"),
]


def serve(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one request served in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse refuses a malformed line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(argv) -> dict:
    code, out, err = serve(argv)
    return {
        "stdout": hashlib.sha256(out.encode()).hexdigest(),
        "stderr": hashlib.sha256(err.encode()).hexdigest(),
        "code": code,
    }


def test_output_matches_recorded_digests(monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    recorded = json.loads(DIGESTS.read_text())
    assert sorted(recorded) == sorted(" ".join(argv) for argv in REQUESTS)
    for argv in REQUESTS:
        assert digest(argv) == recorded[" ".join(argv)], " ".join(argv)


def test_readme_compute_example_is_the_output():
    # the README names the command and shows its output verbatim in the
    # json block that follows
    command = "singover " + " ".join(README_EXAMPLE)
    block = re.search(
        re.escape(f"`{command}` emits:") + r"\n\n```json\n(.*?)```", README.read_text(), re.S
    )
    assert block, f"no json block after {command!r} in README.md"
    assert block.group(1) == serve(README_EXAMPLE)[1]


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    json.dump({" ".join(argv): digest(argv) for argv in REQUESTS}, sys.stdout, indent=2)
    sys.stdout.write("\n")
