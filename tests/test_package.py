"""The package root: the README's library example runs, the root
exports exactly the names it lists, and importing the command line
loads no reflection or csv module."""

import re
import subprocess
import sys
from pathlib import Path

import singover
from singover import errors

README = Path(__file__).resolve().parents[1] / "README.md"
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


def test_cli_import_loads_no_reflection_or_csv_modules():
    # every command pays this import in a fresh interpreter; -S keeps
    # site hooks, which may preload typing, out of the count
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import singover.cli; "
        "print(*sorted({'dataclasses', 'inspect', 'typing', 'csv'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, SRC],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.split() == []
