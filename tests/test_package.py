"""The package root: the README's library example runs, the root
exports exactly the names it lists, and importing the command line
loads no json, csv or reflection module."""

import hashlib
import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import singover
from singover import errors

README = Path(__file__).resolve().parents[1] / "README.md"
DIGESTS = Path(__file__).resolve().parent / "output_digests.json"
SRC = str(Path(singover.__file__).resolve().parents[1])


def _library_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs():
    namespace = {}
    exec(_library_block(), namespace)
    assert namespace["table"].coeffs[1000] > 0
    assert namespace["parities"].trunc_degree == 100_000


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from singover import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(singover.__all__)
    assert all(namespace[name] is getattr(singover, name) for name in singover.__all__)


def test_root_exports_every_exception_class():
    classes = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    }
    assert classes == {"ParameterError"}
    assert classes <= set(singover.__all__)


def _fresh(code):
    """Run ``code`` in a ``python -I -S`` interpreter with ``src`` as
    ``sys.argv[1]``; -S keeps site hooks, which may preload typing, out."""
    return subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, SRC],
        capture_output=True, timeout=60, check=True,
    )


def test_cli_import_loads_no_json_csv_or_reflection_module():
    # every command pays this import in a fresh interpreter
    watched = {
        "dataclasses", "inspect", "typing", "csv",
        "json", "json.decoder", "json.encoder", "json.scanner",
    }
    done = _fresh(
        "import sys; sys.path.insert(0, sys.argv[1]); import singover.cli; "
        f"print(*sorted({watched!r} & set(sys.modules)))"
    )
    assert done.stdout.split() == []


def test_only_a_csv_verify_reply_loads_json():
    # pytest has imported json already, so only a fresh interpreter shows
    # which replies load it
    code = textwrap.dedent("""
        import io, sys
        sys.path.insert(0, sys.argv[1])
        from singover import cli
        for argv in (
            ["verify", "--suite", "exclusions", "--p", "7", "--ell-max", "400"],
            ["density", "--p", "5", "--x", "5000"],
        ):
            sys.stdout = io.StringIO()
            assert cli.main(argv) == 0, argv
        sys.stdout = sys.__stdout__
        print(*sorted(m for m in sys.modules if m.startswith("json")), file=sys.stderr)
        assert cli.main(["verify", "--suite", "exclusions", "--p", "7", "--ell-max", "400",
                         "--format", "csv"]) == 0
    """)
    done = _fresh(code)
    assert done.stderr.split() == []
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    key = "verify --suite exclusions --p 7 --ell-max 400 --format csv"
    assert hashlib.sha256(done.stdout).hexdigest() == pinned[key]["stdout"]
