"""Command-line front end: compute tables, run verifications, report density.

Exit codes: 0 all good, 1 a verification check failed (counterexample in
the report), 2 bad usage or parameter values. Reports are deterministic:
fixed key order, decimal-string big integers, no timestamps.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass

from . import distribution, parity, tables
from .errors import DiscrepancyError, ParameterError, SingoverError
from .oracle import DEFAULT_CAP, MAX_CAP, enumerate_overpartitions
from .params import SingularParams

# Degree caps: exact big-integer tables and packed-parity tables.
CAP_EXACT = 10_000
CAP_PARITY = 100_000

_NINE_PARAMS = ((3, 1), (4, 1), (5, 1), (5, 2), (6, 2), (7, 1), (7, 3), (11, 1), (13, 1))


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: one command plus its numeric parameters."""

    command: str
    fmt: str = "json"
    k: int | None = None
    i: int | None = None
    p: int | None = None
    n_max: int | None = None
    x: int | None = None
    ell_max: int | None = None
    suite: str | None = None
    source: str = "theta"
    mode: str = "single"
    oracle_cap: int = DEFAULT_CAP
    seed_even: int = 4
    seed_odd: int = 2


# ---------------------------------------------------------------------------
# output helpers


def _emit_json(payload, out) -> None:
    out.write(json.dumps(payload, indent=2) + "\n")


def _emit_csv_rows(header, rows, out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)


def _table_payload(params: SingularParams, table) -> dict:
    return {
        "params": {"k": params.k, "i": params.i},
        "N": table.trunc_degree,
        "source": table.source,
        "values": [str(v) for v in table.values],
        "parities": [v & 1 for v in table.values],
    }


def _emit_table(params, table, fmt, out) -> None:
    if fmt == "json":
        _emit_json(_table_payload(params, table), out)
    elif fmt == "csv":
        _emit_csv_rows(
            ("n", "value", "parity"),
            ((n, v, v & 1) for n, v in enumerate(table.values)),
            out,
        )
    else:
        for n, v in enumerate(table.values):
            out.write(f"n={n} value={v} parity={v & 1}\n")


def _emit_checks(suite, config_desc, checks, fmt, out) -> bool:
    passed = all(c["passed"] for c in checks)
    if fmt == "json":
        _emit_json(
            {
                "command": "verify",
                "suite": suite,
                "config": config_desc,
                "checks": checks,
                "passed": passed,
            },
            out,
        )
    elif fmt == "csv":
        _emit_csv_rows(
            ("suite", "check", "passed", "detail"),
            (
                (suite, c["name"], c["passed"], json.dumps(c.get("detail", "")))
                for c in checks
            ),
            out,
        )
    else:
        for c in checks:
            flag = "PASS" if c["passed"] else "FAIL"
            detail = c.get("detail", "")
            out.write(f"{flag} {suite}/{c['name']} {detail}\n")
        out.write(f"{'PASS' if passed else 'FAIL'} {suite}\n")
    return passed


# ---------------------------------------------------------------------------
# commands


def cmd_compute(cfg: RunConfig, out) -> int:
    params = SingularParams(cfg.k, cfg.i)
    if not 0 <= cfg.n_max <= CAP_EXACT:
        raise ParameterError(f"--n-max must be in [0, {CAP_EXACT}] for exact tables")
    build = (
        tables.coefficients_product
        if cfg.source == "product"
        else tables.coefficients_theta
    )
    _emit_table(params, build(params, cfg.n_max), cfg.fmt, out)
    return 0


def _witness_dict(w) -> dict:
    return {"n": w.n, "parity": w.parity, "lo": w.lo, "hi": w.hi, "ell": w.ell}


def _suite_oracle(cfg) -> list[dict]:
    params = SingularParams(cfg.k, cfg.i)
    n_max = min(cfg.n_max, cfg.oracle_cap)
    table = tables.coefficients_theta(params, n_max)
    bad = [
        n
        for n in range(n_max + 1)
        if table[n] != enumerate_overpartitions(params, n, cfg.oracle_cap).count
    ]
    return [
        {
            "name": f"series-vs-enumeration-k{cfg.k}-i{cfg.i}-n{n_max}",
            "passed": not bad,
            "detail": {"mismatches": bad, "mismatch_count": len(bad)},
        }
    ]


def _suite_pipelines(cfg) -> list[dict]:
    params = SingularParams(cfg.k, cfg.i)
    prod = tables.coefficients_product(params, cfg.n_max)
    theta = tables.coefficients_theta(params, cfg.n_max)
    bad = [n for n in range(cfg.n_max + 1) if prod[n] != theta[n]]
    return [
        {
            "name": f"product-vs-theta-k{cfg.k}-i{cfg.i}-n{cfg.n_max}",
            "passed": not bad,
            "detail": {"mismatches": bad[:10], "mismatch_count": len(bad)},
        }
    ]


def _suite_special_forms(cfg) -> list[dict]:
    checks = []
    for family in ("3k", "4k", "6k"):
        scale = cfg.k if cfg.k is not None else 1
        special = tables.special_form(family, scale, cfg.n_max)
        general = tables.coefficients_product(special.params, cfg.n_max)
        bad = [n for n in range(cfg.n_max + 1) if special[n] != general[n]]
        checks.append(
            {
                "name": f"special-{family}-scale{scale}-n{cfg.n_max}",
                "passed": not bad,
                "detail": {"mismatches": bad[:10], "mismatch_count": len(bad)},
            }
        )
    return checks


def _suite_parity_facts(cfg) -> list[dict]:
    n = cfg.n_max
    t31 = tables.parity_table(SingularParams(3, 1), n)
    t41 = tables.parity_table(SingularParams(4, 1), n)
    t62 = tables.parity_table(SingularParams(6, 2), n)
    from .qseries import generalized_pentagonals

    pents = generalized_pentagonals(n)
    bad31 = [e for e in range(1, n + 1) if t31.parity(e)]
    bad41 = [e for e in range(1, n + 1, 2) if t41.parity(e)]
    bad62 = [e for e in range(1, n + 1) if t62.parity(e) != (e in pents)]
    return [
        {
            "name": f"c31-always-even-n{n}",
            "passed": not bad31,
            "detail": {"odd_at": bad31[:10], "failure_count": len(bad31)},
        },
        {
            "name": f"c41-odd-arguments-even-n{n}",
            "passed": not bad41,
            "detail": {"odd_at": bad41[:10], "failure_count": len(bad41)},
        },
        {
            "name": f"c62-odd-iff-pentagonal-n{n}",
            "passed": not bad62,
            "detail": {"mismatch_at": bad62[:10], "mismatch_count": len(bad62)},
        },
    ]


def _suite_lemma1(cfg) -> list[dict]:
    params = SingularParams(cfg.k, cfg.i)
    table = tables.coefficients_theta(params, cfg.n_max)
    wholesale = parity.convolution_mismatches(params, table)
    bad = parity.convolution_parity_failures(params, table)
    return [
        {
            "name": f"convolution-wholesale-k{cfg.k}-i{cfg.i}-n{cfg.n_max}",
            "passed": not wholesale,
            "detail": {
                "first_mismatch": wholesale[0] if wholesale else None,
                "mismatch_count": len(wholesale),
            },
        },
        {
            "name": f"convolution-per-n-k{cfg.k}-i{cfg.i}-n{cfg.n_max}",
            "passed": not bad,
            "detail": {"failures": bad[:10], "failure_count": len(bad)},
        },
    ]


def _suite_exclusions(cfg) -> list[dict]:
    checks = []
    for variant in ("even", "odd"):
        bad = parity.exclusion_counterexamples(cfg.p, cfg.ell_max, variant)
        checks.append(
            {
                "name": f"{variant}-exclusion-p{cfg.p}-ell{cfg.ell_max}",
                "passed": not bad,
                "detail": {
                    "counterexamples": bad[:10],
                    "counterexample_count": len(bad),
                },
            }
        )
    return checks


def _suite_intervals(cfg) -> list[dict]:
    params = SingularParams(cfg.p, 1)
    top = cfg.ell_max * (3 * cfg.ell_max + 1) // 2
    if top > CAP_PARITY:
        raise ParameterError(
            f"--ell-max {cfg.ell_max} needs parity tables past {CAP_PARITY}"
        )
    table = tables.parity_table(params, top)
    checks = []
    for variant, residue, finder in (
        ("even", 1, parity.find_even_in_interval),
        ("odd", 2, parity.find_odd_in_interval),
    ):
        start = 4 if residue == 1 else 2
        found, failures = [], []
        for ell in range(start, cfg.ell_max + 1, 3):
            try:
                found.append(_witness_dict(finder(params, ell, table, cfg.mode)))
            except SingoverError as exc:
                failures.append({"ell": ell, "error": str(exc)})
        checks.append(
            {
                "name": f"{variant}-witness-p{cfg.p}-ell{cfg.ell_max}",
                "passed": not failures,
                "detail": {
                    "witnesses": found,
                    "failures": failures,
                    "failure_count": len(failures),
                },
            }
        )
    return checks


def _suite_all(cfg) -> list[dict]:
    checks = []
    for k, i in _NINE_PARAMS[:5]:
        sub = RunConfig(command="verify", k=k, i=i, n_max=200)
        checks += _suite_pipelines(sub)
        checks += _suite_lemma1(sub)
        checks += _suite_oracle(RunConfig(command="verify", k=k, i=i, n_max=20))
    checks += _suite_special_forms(RunConfig(command="verify", k=1, n_max=200))
    checks += _suite_parity_facts(RunConfig(command="verify", n_max=400))
    checks += _suite_exclusions(RunConfig(command="verify", p=5, ell_max=500))
    checks += _suite_intervals(RunConfig(command="verify", p=5, ell_max=13))
    return checks


# Each suite with the configuration fields it reads; a report's config
# block lists exactly those. "all" runs fixed sizes and reads none.
_SUITES = {
    "oracle": (_suite_oracle, ("k", "i", "n_max", "oracle_cap")),
    "pipelines": (_suite_pipelines, ("k", "i", "n_max")),
    "special-forms": (_suite_special_forms, ("k", "n_max")),
    "parity-facts": (_suite_parity_facts, ("n_max",)),
    "lemma1": (_suite_lemma1, ("k", "i", "n_max")),
    "exclusions": (_suite_exclusions, ("p", "ell_max")),
    "intervals": (_suite_intervals, ("p", "ell_max", "mode")),
    "all": (_suite_all, ()),
}


# Smallest value of a suite's size argument at which every one of its
# checks covers at least one case; below it a check would pass vacuously.
# The even interval and exclusion checks start at l = 4.
_SUITE_MINIMUM = {
    "lemma1": ("n_max", 1),
    "oracle": ("n_max", 1),
    "parity-facts": ("n_max", 1),
    "intervals": ("ell_max", 4),
    "exclusions": ("ell_max", 4),
}


def cmd_verify(cfg: RunConfig, out) -> int:
    if cfg.n_max is not None and not 0 <= cfg.n_max <= CAP_EXACT:
        raise ParameterError(f"--n-max must be in [0, {CAP_EXACT}]")
    if cfg.suite in _SUITE_MINIMUM:
        field, least = _SUITE_MINIMUM[cfg.suite]
        if getattr(cfg, field) < least:
            raise ParameterError(
                f"--{field.replace('_', '-')} must be >= {least} for suite "
                f"{cfg.suite!r}; a smaller value leaves a check with no cases"
            )
    if not 1 <= cfg.oracle_cap <= MAX_CAP:
        raise ParameterError(f"--oracle-cap must be in [1, {MAX_CAP}]")
    run_suite, fields = _SUITES[cfg.suite]
    checks = run_suite(cfg)
    desc = {key: getattr(cfg, key) for key in fields if getattr(cfg, key) is not None}
    return 0 if _emit_checks(cfg.suite, desc, checks, cfg.fmt, out) else 1


def _density_payload(report) -> dict:
    return {
        "command": "density",
        "p": report.p,
        "X": report.cutoff,
        "even_count": report.even_count,
        "odd_count": report.odd_count,
        "nu_even": report.nu_even,
        "nu_odd": report.nu_odd,
        "even_lower_bound": report.even_lower_bound,
        "odd_lower_bound": report.odd_lower_bound,
        "even_dominates": report.even_dominates,
        "odd_dominates": report.odd_dominates,
    }


def _emit_density(report, fmt, out) -> None:
    payload = _density_payload(report)
    if fmt == "json":
        _emit_json(payload, out)
    elif fmt == "csv":
        keys = [k for k in payload if k != "command"]
        _emit_csv_rows(keys, [tuple(payload[k] for k in keys)], out)
    else:
        for key, value in payload.items():
            if key != "command":
                out.write(f"{key}={value}\n")


def cmd_density(cfg: RunConfig, out) -> int:
    if not 1 <= cfg.x <= CAP_PARITY:
        raise ParameterError(f"--x must be in [1, {CAP_PARITY}]")
    params = SingularParams(cfg.p, 1)
    table = tables.parity_table(params, cfg.x)
    try:
        report = distribution.parity_census(
            cfg.p, cfg.x, table, seed_even=cfg.seed_even, seed_odd=cfg.seed_odd
        )
    except DiscrepancyError as exc:
        if exc.payload is not None:
            _emit_density(exc.payload, cfg.fmt, out)
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    _emit_density(report, cfg.fmt, out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
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
    p_verify.add_argument("--suite", choices=sorted(_SUITES), required=True)
    p_verify.add_argument("--k", type=int)
    p_verify.add_argument("--i", type=int)
    p_verify.add_argument("--p", type=int, default=5)
    p_verify.add_argument("--n-max", type=int, default=200)
    p_verify.add_argument("--ell-max", type=int, default=20)
    p_verify.add_argument("--mode", choices=("single", "strict"), default="single")
    p_verify.add_argument("--oracle-cap", type=int, default=DEFAULT_CAP)
    add_fmt(p_verify)

    p_density = sub.add_parser(
        "density", help=f"exact parity census of C-bar_{{p,1}}(1..X) (X <= {CAP_PARITY})"
    )
    p_density.add_argument("--p", type=int, required=True)
    p_density.add_argument("--x", type=int, required=True)
    p_density.add_argument("--seed-even", type=int, default=4)
    p_density.add_argument("--seed-odd", type=int, default=2)
    add_fmt(p_density)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {}
    for name in (
        "fmt",
        "k",
        "i",
        "p",
        "n_max",
        "x",
        "ell_max",
        "suite",
        "source",
        "mode",
        "oracle_cap",
        "seed_even",
        "seed_odd",
    ):
        if hasattr(args, name) and getattr(args, name) is not None:
            fields[name] = getattr(args, name)
    cfg = RunConfig(command=args.command, **fields)
    suite_needs = {"oracle": ("k", "i"), "pipelines": ("k", "i"), "lemma1": ("k", "i")}
    if cfg.command == "verify":
        for field in suite_needs.get(cfg.suite, ()):
            if getattr(cfg, field) is None:
                raise ParameterError(
                    f"--{field} is required for suite {cfg.suite!r}"
                )
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        handler = {"compute": cmd_compute, "verify": cmd_verify, "density": cmd_density}
        return handler[cfg.command](cfg, sys.stdout)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except DiscrepancyError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except SingoverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
