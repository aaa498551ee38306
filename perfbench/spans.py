"""Span recording around the program's public functions, for traced runs.

``Recorder.install`` replaces each listed function, in every loaded
``singover`` module that holds a reference to it, by a wrapper that
records a span (name, start, end, parent, request) and per-function
counts. Nothing in the program changes; untraced runs never install it.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter_ns

TRACED = {
    "qseries": (
        "theta_sum",
        "eta_product",
        "pochhammer_neg",
        "mul",
        "div",
        "reduce_mod2",
        "inv_f2",
        "mul_f2",
    ),
    "tables": ("coefficients_theta", "coefficients_product", "parity_table"),
    "parity": (
        "convolution_parity_check",
        "exceptional_set",
        "first_convolution_mismatch",
        "find_even_in_interval",
        "find_odd_in_interval",
    ),
    "distribution": ("parity_census", "build_sequence"),
    "oracle": ("enumerate_overpartitions", "count_by_backtracking", "count_by_dp"),
    "cli": ("main",),
}
# Layers whose result carries a truncation degree worth summing.
DEGREE_LAYERS = ("qseries", "tables")


class Recorder:
    def __init__(self):
        self.names = []
        self.request = 0  # set by the caller before each request
        # One row per span, kept in flat arrays to stay small.
        self._id = array("l")
        self._name = array("H")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("l")
        self._req = array("l")
        self._next_id = 0
        self._stack = []  # frames: [span id, child ns, ran a qseries span]
        self.calls = []
        self.self_ns = []
        self.degrees = []
        self.hits = []
        self._restore = []

    def install(self, package: str = "singover") -> None:
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for module_name, functions in TRACED.items():
            module = sys.modules[f"{package}.{module_name}"]
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrapper = self._wrap(module_name, fn_name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._restore.append((m, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, module_name, fn_name, fn):
        idx = len(self.names)
        self.names.append(f"{module_name}.{fn_name}")
        for counter in (self.calls, self.self_ns, self.degrees, self.hits):
            counter.append(0)
        is_qseries = module_name == "qseries"
        is_table = module_name == "tables"
        wants_degree = module_name in DEGREE_LAYERS
        stack = self._stack

        def wrapper(*args, **kwargs):
            span = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span, 0, False]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                self._id.append(span)
                self._name.append(idx)
                self._start.append(start)
                self._end.append(end)
                self._parent.append(parent[0] if parent else -1)
                self._req.append(self.request)
                self.calls[idx] += 1
                self.self_ns[idx] += end - start - frame[1]
                if parent is not None:
                    parent[1] += end - start
                    parent[2] = parent[2] or is_qseries or frame[2]
            if wants_degree:
                self.degrees[idx] += result.trunc_degree
            if is_table and not frame[2]:
                self.hits[idx] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self) -> dict:
        out = {}
        for idx, name in enumerate(self.names):
            module = name.split(".")[0]
            out[f"{name}.calls"] = {"value": self.calls[idx], "unit": "count"}
            out[f"{name}.self_ms"] = {"value": self.self_ns[idx] / 1e6, "unit": "ms"}
            if module in DEGREE_LAYERS:
                out[f"{name}.degrees"] = {"value": self.degrees[idx], "unit": "count"}
            if module == "tables":
                out[f"{name}.hits"] = {"value": self.hits[idx], "unit": "count"}
        return out

    def write(self, path) -> None:
        """Write every span in columns, times in ns. Spans are numbered in
        order of entry and listed in order of exit."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "id": self._id.tolist(),
                    "name": self._name.tolist(),
                    "start_ns": self._start.tolist(),
                    "end_ns": self._end.tolist(),
                    "parent": self._parent.tolist(),
                    "request": self._req.tolist(),
                },
                fh,
            )
