"""Command-line front end: compute tables, run verifications, report density.

Exit codes: 0 all good, 1 a verification check failed (counterexample in
the report), 2 bad usage or parameter values. Reports are deterministic:
fixed key order, decimal-string big integers, no timestamps.
"""

from __future__ import annotations

import argparse
import functools
import sys
# json.dumps's C string quoter, taken from _json so that json is not loaded
from _json import encode_basestring_ascii as _quote

from . import checks, distribution, tables
from .checks import CAP_EXACT, CAP_PARITY
from .errors import ParameterError
from .params import SingularParams
from .parity import FIRST_ELL


# ---------------------------------------------------------------------------
# output helpers


def _json_text(value, pad="\n"):
    """``json.dumps(value, indent=2)`` for a report, built by recursion
    and ``str.join`` (CPython's ``indent=2`` encoder is the pure-Python
    one). Only exact ``dict``, ``list``, ``tuple``, ``str``, ``int``,
    ``bool`` and ``None`` are written; anything else, a float, a non-str
    key or a subclass of dict or list, raises ``TypeError``."""
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        # _quote raises TypeError for a key that is not a str
        items = [
            _quote(key) + ": " + _json_text(item, inner) for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    # an exact int, so never a bool
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return _quote(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        items = _rows(value, inner) or [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    raise TypeError(f"a report holds no {kind.__name__}: {value!r}")


def _rows(value, pad):
    """The items of a list of two or more flat records through one
    %-template, or None when they are not such a list.

    A record is a non-empty dict; all share the first one's keys in its
    order. Each column is all exact ints, written with %d, or all strs
    that ``_quote`` to themselves between quotes, written as "%s". A
    ``%`` in a key is doubled in the template. Anything else, a bool, a
    None, a str that needs escaping or a nested value, returns None.
    """
    first = value[0]
    if len(value) < 2 or type(first) is not dict or not first:
        return None
    keys = list(first)
    if any(type(record) is not dict or list(record) != keys for record in value):
        return None
    rows = [tuple(record.values()) for record in value]
    inner = pad + "  "
    fields = []
    for key, column in zip(keys, zip(*rows)):
        kinds = set(map(type, column))
        if kinds == {int}:
            field = "%d"
        elif kinds == {str} and all(_quote(s) == f'"{s}"' for s in set(column)):
            field = '"%s"'
        else:
            return None
        fields.append(_quote(key).replace("%", "%%") + ": " + field)
    template = "{" + inner + ("," + inner).join(fields) + pad + "}"
    return [template % row for row in rows]


def _emit_csv_rows(header, rows, out) -> None:
    # imported here, so only a --format csv reply pays for the module
    import csv

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)


def _emit_table(params, source, table, fmt, out) -> None:
    """Write a table in one joined pass per format over ``table.coeffs``:
    byte for byte the ``json.dumps(indent=2)`` report, the ``csv.writer``
    rows or the plain ``n=… value=… parity=…`` lines."""
    coeffs = table.coeffs
    if fmt == "json":
        out.write(
            f'{{\n  "params": {{\n    "k": {params.k},\n    "i": {params.i}\n  }},\n'
            f'  "N": {table.trunc_degree},\n  "source": {_quote(source)},\n'
            '  "values": [\n    "'
        )
        out.write('",\n    "'.join(map(str, coeffs)))
        out.write('"\n  ],\n  "parities": [\n    ')
        out.write(",\n    ".join(["01"[v & 1] for v in coeffs]))
        out.write("\n  ]\n}\n")
    elif fmt == "csv":
        out.write("n,value,parity\n")
        out.write("".join([f"{n},{v},{v & 1}\n" for n, v in enumerate(coeffs)]))
    else:
        out.write("".join([f"n={n} value={v} parity={v & 1}\n" for n, v in enumerate(coeffs)]))


def _emit_checks(suite, config, results, fmt, out) -> bool:
    passed = all(c["passed"] for c in results)
    if fmt == "json":
        report = {
            "command": "verify",
            "suite": suite,
            "config": config,
            "checks": results,
            "passed": passed,
        }
        out.write(_json_text(report) + "\n")
    elif fmt == "csv":
        # imported here, so only a --format csv reply pays for the package
        import json

        _emit_csv_rows(
            ("suite", "check", "passed", "detail"),
            (
                (suite, c["name"], c["passed"], json.dumps(c["detail"]))
                for c in results
            ),
            out,
        )
    else:
        for c in results:
            flag = "PASS" if c["passed"] else "FAIL"
            out.write(f"{flag} {suite}/{c['name']} {c['detail']}\n")
        out.write(f"{'PASS' if passed else 'FAIL'} {suite}\n")
    return passed


# ---------------------------------------------------------------------------
# commands


def cmd_compute(args, out) -> int:
    params = SingularParams(args.k, args.i)
    if not 0 <= args.n_max <= CAP_EXACT:
        raise ParameterError(f"--n-max must be in [0, {CAP_EXACT}] for exact tables")
    build = (
        tables.coefficients_product
        if args.source == "product"
        else tables.coefficients_theta
    )
    _emit_table(params, args.source, build(params, args.n_max), args.fmt, out)
    return 0


def cmd_verify(args, out) -> int:
    suite = checks.SUITES[args.suite]
    config = {}
    for name in suite.options:
        value = getattr(args, name)
        if value is not None:
            config[name] = value
        elif name not in suite.optional:
            raise ParameterError(f"--{name} is required for suite {args.suite!r}")
    if suite.size is not None:
        name, least, greatest = suite.size
        flag = "--" + name.replace("_", "-")
        if config[name] < least:
            raise ParameterError(
                f"{flag} must be >= {least} for suite {args.suite!r}; "
                "a smaller value leaves a check with no cases"
            )
        if config[name] > greatest:
            raise ParameterError(f"{flag} must be <= {greatest} for suite {args.suite!r}")
    results = suite.run(**config)
    return 0 if _emit_checks(args.suite, config, results, args.fmt, out) else 1


def cmd_density(args, out) -> int:
    # X below the even sequence's first term has no witness sequence
    least = FIRST_ELL["even"]
    if not least <= args.x <= CAP_PARITY:
        raise ParameterError(f"--x must be in [{least}, {CAP_PARITY}]")
    report = distribution.parity_census(args.p, args.x)
    if args.fmt == "json":
        out.write(_json_text({"command": "density", **report}) + "\n")
    elif args.fmt == "csv":
        _emit_csv_rows(report.keys(), [report.values()], out)
    else:
        out.write("".join(f"{key}={value}\n" for key, value in report.items()))
    if report["even_dominates"] and report["odd_dominates"]:
        return 0
    print(
        f"verification failure: parity census for p = {args.p}, X = {args.x} "
        "fell below its proven lower bound",
        file=sys.stderr,
    )
    return 1


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``main`` call and reused."""
    parser = argparse.ArgumentParser(
        prog="singover",
        description="Singular overpartition tables and mechanical parity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fmt(p):
        p.add_argument(
            "--format", choices=("json", "csv", "plain"), default="json", dest="fmt"
        )

    p_compute = sub.add_parser(
        "compute", help=f"emit C-bar_{{k,i}}(0..N) with parities (N <= {CAP_EXACT})"
    )
    p_compute.add_argument("--k", type=int, required=True)
    p_compute.add_argument("--i", type=int, required=True)
    p_compute.add_argument("--n-max", type=int, required=True)
    p_compute.add_argument("--source", choices=("theta", "product"), default="theta")
    add_fmt(p_compute)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=sorted(checks.SUITES), required=True)
    p_verify.add_argument("--k", type=int)
    p_verify.add_argument("--i", type=int)
    p_verify.add_argument("--p", type=int, default=5)
    p_verify.add_argument("--n-max", type=int, default=200)
    p_verify.add_argument("--ell-max", type=int, default=20)
    add_fmt(p_verify)

    p_density = sub.add_parser(
        "density",
        help=f"exact parity census of C-bar_{{p,1}}(1..X) "
        f"({FIRST_ELL['even']} <= X <= {CAP_PARITY})",
    )
    p_density.add_argument("--p", type=int, required=True)
    p_density.add_argument("--x", type=int, required=True)
    add_fmt(p_density)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        handler = {"compute": cmd_compute, "verify": cmd_verify, "density": cmd_density}
        return handler[args.command](args, sys.stdout)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
