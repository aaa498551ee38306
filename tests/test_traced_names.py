"""The benchmark's traced functions exist in the program.

perfbench/spans.py wraps each name it lists; a name the program no
longer has would break every traced benchmark run. spans.py is loaded
by path, as a file, so this suite does not depend on perfbench's own.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


TRACED = _load_spans().TRACED


@pytest.mark.parametrize("module", sorted(TRACED))
def test_every_traced_name_is_a_function_of_its_module(module):
    program = importlib.import_module(f"singover.{module}")
    missing = [name for name in TRACED[module] if not callable(getattr(program, name, None))]
    assert missing == []
