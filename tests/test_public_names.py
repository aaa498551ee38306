"""Every public function and class of the package has a use.

A public top-level name in ``src/singover`` must be referenced, as a
name or an attribute, somewhere in the ASTs of ``src/`` or ``scripts/``
besides its own definition; words in docstrings do not count. The
names the package root exports and the functions perfbench/spans.py
traces are exempt: their users live outside these trees. spans.py is
loaded by path, as in test_traced_names.py.
"""

import ast
import importlib.util
from pathlib import Path

import singover

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_every_public_name_is_used_outside_the_tests():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for tree in ("src", "scripts")
        for path in sorted((ROOT / tree).rglob("*.py"))
    }
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exempt = {(module, name) for module, names in _traced().items() for name in names}
    unused = [
        f"{path.stem}.{node.name}"
        for path, tree in trees.items()
        if path.parent == ROOT / "src" / "singover"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
        and node.name not in singover.__all__
        and (path.stem, node.name) not in exempt
    ]
    assert unused == []
