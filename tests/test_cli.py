"""Command-line contract: schemas, formats, determinism, exit codes."""

import csv
import inspect
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections import OrderedDict
from hashlib import sha256
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singover import checks, cli, tables
from singover.errors import ParameterError
from singover.params import SingularParams
from singover.qseries import TruncSeriesF2


def run_cli(args, capsys):
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_compute_worked_example(capsys):
    code, out, _ = run_cli(["compute", "--k", "3", "--i", "1", "--n-max", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["params"] == {"k": 3, "i": 1}
    assert payload["N"] == 4
    assert payload["values"][-1] == "10"
    assert payload["parities"][-1] == 0


def test_compute_single_row(capsys):
    code, out, _ = run_cli(["compute", "--k", "5", "--i", "1", "--n-max", "0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == ["1"]


def test_compute_csv_row_count(capsys):
    code, out, _ = run_cli(
        ["compute", "--k", "6", "--i", "2", "--n-max", "30", "--format", "csv"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "value", "parity"]
    assert len(rows) == 32  # header plus 31 data rows


def test_compute_csv_and_json_carry_same_numbers(capsys):
    args = ["compute", "--k", "5", "--i", "2", "--n-max", "12"]
    _, json_out, _ = run_cli(args, capsys)
    _, csv_out, _ = run_cli(args + ["--format", "csv"], capsys)
    payload = json.loads(json_out)
    rows = list(csv.reader(io.StringIO(csv_out)))[1:]
    assert [r[1] for r in rows] == payload["values"]
    assert [int(r[2]) for r in rows] == payload["parities"]


def test_compute_sources_agree(capsys):
    args = ["compute", "--k", "7", "--i", "3", "--n-max", "40"]
    _, theta_out, _ = run_cli(args, capsys)
    _, product_out, _ = run_cli(args + ["--source", "product"], capsys)
    assert json.loads(theta_out)["values"] == json.loads(product_out)["values"]


def reference_table(k, i, n_max, source, fmt):
    """The compute reply built the plain way: a payload through json.dumps,
    rows through csv.writer, or one plain line per degree."""
    build = tables.coefficients_product if source == "product" else tables.coefficients_theta
    coeffs = build(SingularParams(k, i), n_max).coeffs
    if fmt == "json":
        payload = {
            "params": {"k": k, "i": i},
            "N": n_max,
            "source": source,
            "values": [str(v) for v in coeffs],
            "parities": [v & 1 for v in coeffs],
        }
        return json.dumps(payload, indent=2) + "\n"
    out = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("n", "value", "parity"))
        writer.writerows((n, v, v & 1) for n, v in enumerate(coeffs))
    else:
        for n, v in enumerate(coeffs):
            out.write(f"n={n} value={v} parity={v & 1}\n")
    return out.getvalue()


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
@pytest.mark.parametrize("source", ["theta", "product"])
@pytest.mark.parametrize("k,i", [(3, 1), (4, 2)])
@pytest.mark.parametrize("n_max", [0, 1, 97])
def test_compute_reply_matches_the_reference_writer(capsys, n_max, k, i, source, fmt):
    args = ["compute", "--k", str(k), "--i", str(i), "--n-max", str(n_max)]
    code, out, _ = run_cli(args + ["--source", source, "--format", fmt], capsys)
    assert code == 0
    assert out == reference_table(k, i, n_max, source, fmt)


def test_compute_reply_at_the_exact_cap_matches_the_reference_writer(capsys):
    n_max = checks.CAP_EXACT
    code, out, _ = run_cli(["compute", "--k", "3", "--i", "1", "--n-max", str(n_max)], capsys)
    assert code == 0
    # compared by digest: pytest's failure diff of two 0.1 MB texts takes minutes
    expected = reference_table(3, 1, n_max, "theta", "json")
    assert sha256(out.encode()).hexdigest() == sha256(expected.encode()).hexdigest()


# quotes, backslashes, control characters, U+2028, non-ASCII and a lone
# surrogate, mixed into any code point
JSON_CHARS = st.sampled_from(
    '"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\u2029\xe9\u4e2d\U0001f600\ud800'
)
JSON_TEXT = st.text(JSON_CHARS | st.characters(), max_size=8)
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.sampled_from([2**64, -(2**64), 2**64 + 1, 10**40, -(10**40)])
    | JSON_TEXT
)


def json_containers(inner, least=0, most=4):
    """Lists, tuples and str-keyed dicts of ``least`` to ``most`` ``inner``."""
    return (
        st.lists(inner, min_size=least, max_size=most)
        | st.lists(inner, min_size=least, max_size=most).map(tuple)
        | st.dictionaries(JSON_TEXT, inner, min_size=least, max_size=most)
    )


JSON_VALUES = st.recursive(JSON_SCALARS, json_containers, max_leaves=12)
# four non-empty containers around any value: always nested at least 4 deep
DEEP_JSON_VALUES = JSON_VALUES
for _ in range(4):
    DEEP_JSON_VALUES = json_containers(DEEP_JSON_VALUES, 1, 2)


def emitted(value):
    return cli._json_text(value) + "\n"


@given(DEEP_JSON_VALUES)
@example({"a": [{"b": ({"c": [[], {}, (), ""]},)}], "d": [True, False, None, 0, -1]})
@example([[[[2**64, -(2**64) - 1, '"\\\x00\u2028\xe9']]]])
@settings(deadline=None)
def test_emit_json_writes_what_json_dumps_writes(value):
    assert emitted(value) == json.dumps(value, indent=2) + "\n"


def test_emit_json_writes_the_all_suites_report_as_json_dumps():
    results = checks.all_suites()
    report = {
        "command": "verify",
        "suite": "all",
        "config": {},
        "checks": results,
        "passed": all(c["passed"] for c in results),
    }
    assert emitted(report) == json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize(
    "value",
    [1.5, {"x": [0.0]}, {1: "a"}, [{"deep": {2: 3}}], OrderedDict(a=1)],
    ids=["float", "nested-float", "int-key", "nested-int-key", "OrderedDict"],
)
def test_emit_json_refuses_what_json_dumps_writes_quietly(value):
    json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        emitted(value)


def test_deterministic_output(capsys):
    args = ["density", "--p", "5", "--x", "500"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_verify_lemma1(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "lemma1", "--k", "3", "--i", "1", "--n-max", "300"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(c["passed"] for c in payload["checks"])


def test_verify_lemma1_half_k(capsys):
    # at i = k/2 the theta coefficient of every exceptional n is 2, and
    # the per-n check holds alongside the wholesale one
    code, out, _ = run_cli(
        ["verify", "--suite", "lemma1", "--k", "4", "--i", "2", "--n-max", "1000"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(c["passed"] for c in payload["checks"])


def test_oracle_cap_option_is_a_usage_error(capsys):
    # the oracle's size is --n-max alone; the old --oracle-cap is unknown
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "oracle", "--k", "5", "--i", "1", "--n-max", "100",
                  "--oracle-cap", "100"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "unrecognized arguments: --oracle-cap 100" in err


def test_oracle_at_the_cap(capsys):
    # the registry loop test refuses 2001; 2000 is checked in full
    assert checks.SUITES["oracle"].size == ("n_max", 1, 2000)
    code, out, _ = run_cli(
        ["verify", "--suite", "oracle", "--k", "13", "--i", "1", "--n-max", "2000"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"] == {"k": 13, "i": 1, "n_max": 2000}
    (check,) = payload["checks"]
    assert check["name"] == "series-vs-enumeration-k13-i1-n2000" and check["passed"]
    assert check["detail"] == {"mismatches": [], "mismatch_count": 0}


@pytest.mark.parametrize("k", [4, 6, 8])
def test_verify_oracle_half_k(capsys, k):
    # the oracle counts the formula's two marks at i = k/2
    code, out, _ = run_cli(
        ["verify", "--suite", "oracle", "--k", str(k), "--i", str(k // 2), "--n-max", "30"],
        capsys,
    )
    assert code == 0 and json.loads(out)["passed"] is True


@pytest.mark.parametrize(
    "args",
    [
        ["--suite", "lemma1", "--k", "3", "--i", "1", "--n-max", "0"],
        ["--suite", "oracle", "--k", "3", "--i", "1", "--n-max", "0"],
        ["--suite", "intervals", "--p", "5", "--ell-max", "3"],
        ["--suite", "exclusions", "--p", "5", "--ell-max", "3"],
        ["--suite", "parity-facts", "--n-max", "0"],
    ],
    ids=["lemma1-n0", "oracle-n0", "intervals-ell3", "exclusions-ell3", "parity-facts-n0"],
)
def test_zero_case_checks_exit_2(capsys, args):
    code, out, err = run_cli(["verify"] + args, capsys)
    assert code == 2 and "no cases" in err
    assert out == ""


@pytest.mark.parametrize(
    "args, option",
    [
        (["--suite", "oracle", "--n-max", "30"], "k"),
        (["--suite", "oracle", "--k", "5", "--n-max", "30"], "i"),
        (["--suite", "pipelines", "--i", "1", "--n-max", "30"], "k"),
        (["--suite", "pipelines", "--k", "5", "--n-max", "30"], "i"),
        (["--suite", "lemma1", "--i", "1", "--n-max", "30"], "k"),
        (["--suite", "lemma1", "--k", "5", "--n-max", "30"], "i"),
    ],
    ids=[
        "oracle-no-k",
        "oracle-no-i",
        "pipelines-no-k",
        "pipelines-no-i",
        "lemma1-no-k",
        "lemma1-no-i",
    ],
)
def test_verify_without_a_required_option_exits_2(capsys, args, option):
    code, out, err = run_cli(["verify"] + args, capsys)
    assert code == 2 and out == ""
    assert err == f"parameter error: --{option} is required for suite {args[1]!r}\n"


def test_every_suite_declares_the_parameters_of_its_function():
    # the registry names each function's parameters in order, marks
    # those with a default optional, and sizes one of them
    for name, suite in checks.SUITES.items():
        parameters = inspect.signature(suite.run).parameters.values()
        assert suite.options == tuple(p.name for p in parameters), name
        defaulted = {p.name for p in parameters if p.default is not p.empty}
        assert set(suite.optional) == defaulted, name
        assert suite.size is None or suite.size[0] in suite.options, name


def _readme_number(text):
    # "816", or a power of ten written with a superscript, "10⁶"
    if text.startswith("10") and len(text) > 2:
        return 10 ** int(text[2:].translate(str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")))
    return int(text)


def test_readme_size_table_matches_the_registry():
    # each row of the README's suite / size / least / greatest table is
    # the size bound of every suite it names, and every sized suite has one
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    header = "| suite | size | least | greatest |\n|---|---|---|---|\n"
    assert header in readme
    rows = readme.split(header, 1)[1].split("\n\n", 1)[0].splitlines()
    listed = {}
    for row in rows:
        names, flag, least, greatest = [cell.strip() for cell in row.strip("|").split("|")]
        option = flag.strip("`").removeprefix("--").replace("-", "_")
        size = (option, _readme_number(least), _readme_number(greatest))
        for name in names.split(", "):
            listed[name.strip("`")] = size
    assert listed == {name: s.size for name, s in checks.SUITES.items() if s.size}


def test_sizes_outside_the_registry_bounds_exit_2(capsys):
    # every sized suite refuses one below its least and one above its
    # greatest size before it builds anything
    sized = [(name, suite.size) for name, suite in checks.SUITES.items() if suite.size]
    assert {name for name, _ in sized} == set(checks.SUITES) - {"all"}
    for name, (arg, least, greatest) in sized:
        base = ["verify", "--suite", name, "--k", "3", "--i", "1"]
        for value in (least - 1, greatest + 1):
            code, out, err = run_cli(base + ["--" + arg.replace("_", "-"), str(value)], capsys)
            assert code == 2 and "parameter error" in err, (name, value, err)
            assert out == ""
    assert checks.SUITES["exclusions"].size == ("ell_max", 4, 10**6)
    assert checks.SUITES["intervals"].size == ("ell_max", 4, 816)
    assert checks.SUITES["parity-facts"].size == ("n_max", 1, cli.CAP_PARITY)


def test_verify_oracle(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "oracle", "--k", "7", "--i", "2", "--n-max", "25"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_intervals_lists_witnesses(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "intervals", "--p", "5", "--ell-max", "40"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    for check in payload["checks"]:
        assert check["detail"]["witnesses"]
        assert not check["detail"]["failures"]


def test_verify_exclusions_and_special_forms(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "exclusions", "--p", "13", "--ell-max", "2000"], capsys
    )
    assert code == 0
    code, out, _ = run_cli(
        ["verify", "--suite", "special-forms", "--k", "2", "--n-max", "120"], capsys
    )
    assert code == 0


def test_verify_parity_facts(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "parity-facts", "--n-max", "300"], capsys
    )
    assert code == 0


def test_density_partitions_range(capsys):
    code, out, _ = run_cli(["density", "--p", "5", "--x", "100"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["even_count"] + payload["odd_count"] == 100
    assert payload["even_dominates"] and payload["odd_dominates"]


def test_density_csv_matches_json(capsys):
    _, json_out, _ = run_cli(["density", "--p", "5", "--x", "200"], capsys)
    _, csv_out, _ = run_cli(
        ["density", "--p", "5", "--x", "200", "--format", "csv"], capsys
    )
    payload = json.loads(json_out)
    header, row = list(csv.reader(io.StringIO(csv_out)))
    for key, cell in zip(header, row):
        assert str(payload[key]) == cell


def test_parameter_errors_exit_2(capsys):
    code, _, err = run_cli(["compute", "--k", "2", "--i", "1", "--n-max", "4"], capsys)
    assert code == 2 and "parameter error" in err
    code, _, err = run_cli(["compute", "--k", "5", "--i", "1", "--n-max", "20001"], capsys)
    assert code == 2
    code, _, err = run_cli(["verify", "--suite", "pipelines"], capsys)
    assert code == 2 and "--k" in err
    code, _, err = run_cli(["density", "--p", "9", "--x", "10"], capsys)
    assert code == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "--bogus"])
    assert exc.value.code == 2


def test_failed_check_exits_1(capsys, monkeypatch):
    # force a counterexample through the reporting path
    monkeypatch.setattr(
        checks.parity, "exclusion_counterexamples", lambda p, e, v: [4]
    )
    code, out, _ = run_cli(
        ["verify", "--suite", "exclusions", "--p", "5", "--ell-max", "10"], capsys
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["checks"][0]["detail"]["counterexamples"] == [4]


def test_density_below_a_floor_prints_the_report_and_exits_1(capsys, monkeypatch):
    # an all-even table leaves no odd value, so the odd floor fails
    monkeypatch.setattr(tables, "parity_table", lambda params, n: TruncSeriesF2(1, n))
    failure = (
        "verification failure: parity census for p = 5, X = 100 fell below its "
        "proven lower bound\n"
    )
    code, out, err = run_cli(["density", "--p", "5", "--x", "100"], capsys)
    assert (code, err) == (1, failure)
    report = json.loads(out)
    assert report["command"] == "density"
    assert (report["even_count"], report["odd_count"]) == (100, 0)
    assert report["even_dominates"] is True and report["odd_dominates"] is False
    code, out, err = run_cli(["density", "--p", "5", "--x", "100", "--format", "csv"], capsys)
    assert (code, err) == (1, failure)
    (row,) = csv.DictReader(io.StringIO(out))
    assert row["odd_count"] == "0" and row["odd_dominates"] == "False"
    assert list(row) == [key for key in report if key != "command"]


def test_plain_format(capsys):
    code, out, _ = run_cli(
        ["compute", "--k", "3", "--i", "1", "--n-max", "2", "--format", "plain"],
        capsys,
    )
    assert code == 0
    assert out.splitlines() == ["n=0 value=1 parity=1", "n=1 value=2 parity=0", "n=2 value=4 parity=0"]


def run_module(args):
    """One `python -m singover` run in a child process: (code, stdout, stderr).

    The child imports the same package as this test, installed or not.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "singover", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_module_entry_point():
    code, out, _ = run_module(["compute", "--k", "3", "--i", "1", "--n-max", "4"])
    assert code == 0
    assert json.loads(out)["values"][-1] == "10"


SESSION = [
    ["compute", "--k", "3", "--i", "1", "--n-max", "4"],
    ["density", "--p", "5", "--x", "100", "--format", "csv"],
    ["compute", "--bogus"],
    ["verify", "--suite", "intervals", "--p", "7", "--ell-max", "13", "--format", "plain"],
    ["density", "--p", "9", "--x", "10"],
    ["verify", "--suite", "lemma1", "--k", "4", "--i", "2", "--n-max", "30"],
    ["density", "--p", "5"],
]


def test_one_parser_serves_a_session_like_separate_runs(capsys):
    # usage errors included: argparse exits 2 the same way on a reused parser
    cli._build_parser.cache_clear()
    session = []
    for args in SESSION:
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
        session.append((code, *capsys.readouterr()))
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in session] == [0, 0, 2, 0, 2, 0, 2]
    assert session == [run_module(args) for args in SESSION]


@pytest.mark.parametrize("p", ["4", "9", "25"])
def test_density_rejects_composite_p_before_building_the_table(capsys, monkeypatch, p):
    built = []
    monkeypatch.setattr(tables, "parity_table", lambda params, n: built.append(n))
    code, out, err = run_cli(["density", "--p", p, "--x", "1000000"], capsys)
    assert (code, out, err) == (2, "", f"parameter error: p must be a prime >= 5, got {p}\n")
    assert built == []


@pytest.mark.parametrize("p", ["1", "2", "3"])
def test_density_rejects_too_small_p_before_building_the_table(capsys, monkeypatch, p):
    built = []
    monkeypatch.setattr(tables, "parity_table", lambda params, n: built.append(n))
    code, out, err = run_cli(["density", "--p", p, "--x", "1000000"], capsys)
    assert code == 2 and out == ""
    assert err == f"parameter error: p must be a prime >= 5, got {p}\n"
    assert built == []


def test_an_option_a_suite_does_not_read_is_not_checked(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "intervals", "--p", "5", "--ell-max", "10", "--n-max", "0"],
        capsys,
    )
    assert code == 0 and json.loads(out)["passed"] is True


@pytest.mark.parametrize(
    "argv,config",
    [
        (["--suite", "intervals", "--ell-max", "10"], {"p": 5, "ell_max": 10}),
        (["--suite", "lemma1", "--k", "4", "--i", "2", "--n-max", "30"], {"k": 4, "i": 2, "n_max": 30}),
        (
            ["--suite", "oracle", "--k", "5", "--i", "1", "--n-max", "8"],
            {"k": 5, "i": 1, "n_max": 8},
        ),
        (["--suite", "parity-facts", "--n-max", "50"], {"n_max": 50}),
        (["--suite", "exclusions", "--p", "7", "--ell-max", "40"], {"p": 7, "ell_max": 40}),
        (["--suite", "all"], {}),
        (["--suite", "special-forms", "--n-max", "20"], {"n_max": 20}),
        (["--suite", "special-forms", "--k", "2", "--n-max", "20"], {"k": 2, "n_max": 20}),
    ],
)
def test_verify_config_lists_the_fields_the_suite_reads(argv, config, capsys):
    code, out, _ = run_cli(["verify", *argv], capsys)
    assert code == 0
    assert json.loads(out)["config"] == config


def test_verify_every_check_reports_a_total_count(capsys):
    code, out, _ = run_cli(["verify", "--suite", "all"], capsys)
    assert code == 0
    for check in json.loads(out)["checks"]:
        detail = check["detail"]
        counts = [key for key in detail if key.endswith("_count")]
        # the interval checks also count the l they skip
        assert len(counts) == (2 if "skipped" in detail else 1), check["name"]
        assert all(detail[key] == 0 for key in counts), check["name"]


def test_verify_total_counts_go_past_the_first_ten(capsys, monkeypatch):
    monkeypatch.setattr(
        checks.parity, "exclusion_counterexamples", lambda p, e, v: list(range(4, 100, 3))
    )
    code, out, _ = run_cli(
        ["verify", "--suite", "exclusions", "--p", "5", "--ell-max", "100"], capsys
    )
    assert code == 1
    detail = json.loads(out)["checks"][0]["detail"]
    assert detail == {"counterexamples": list(range(4, 34, 3)), "counterexample_count": 32}
    # both lemma 1 records report from the one list of mismatches
    monkeypatch.setattr(
        checks.parity, "convolution_mismatches", lambda params, table: list(range(1, 16))
    )
    code, out, _ = run_cli(
        ["verify", "--suite", "lemma1", "--k", "3", "--i", "1", "--n-max", "20"], capsys
    )
    assert code == 1
    wholesale, per_n = json.loads(out)["checks"]
    assert wholesale["detail"] == {"first_mismatch": 1, "mismatch_count": 15}
    assert per_n["detail"] == {"failures": list(range(1, 11)), "failure_count": 15}


def claim_targets(monkeypatch, even_ells=(), odd_ells=()):
    """Make the form solver place the targets of these l on the form for
    i = 1. No l of a prime p lies there, so only this reaches the skips."""
    claimed = {l * (3 * l + 1) for l in even_ells} | {l * (3 * l - 1) for l in odd_ells}
    real = checks.parity._residue_witness
    monkeypatch.setattr(
        checks.parity,
        "_residue_witness",
        lambda k, t: 1 if t in claimed else real(k, t),
    )


@pytest.mark.parametrize("even_skipped,odd_skipped", [([], [2]), ([10], [2, 5, 14])])
def test_verify_intervals_skips_what_the_theorem_does_not_cover(
    capsys, monkeypatch, even_skipped, odd_skipped
):
    # an l whose target lies on the form for i = 1 is outside the
    # guarantee: it is skipped and counted, and the check still passes
    claim_targets(monkeypatch, even_skipped, odd_skipped)
    code, out, _ = run_cli(
        ["verify", "--suite", "intervals", "--p", "13", "--ell-max", "20"], capsys
    )
    assert code == 0
    even, odd = json.loads(out)["checks"]
    for check, skipped, start in ((even, even_skipped, 4), (odd, odd_skipped, 2)):
        detail = check["detail"]
        assert check["passed"] and detail["failure_count"] == 0
        assert detail["skipped"] == skipped and detail["skipped_count"] == len(skipped)
        witnessed = [w["ell"] for w in detail["witnesses"]]
        assert sorted(witnessed + skipped) == list(range(start, 21, 3))


def test_verify_intervals_check_with_every_l_skipped_fails(capsys, monkeypatch):
    # the only odd l <= 4 is 2, and its target is made to lie on the form
    claim_targets(monkeypatch, odd_ells=[2])
    code, out, _ = run_cli(
        ["verify", "--suite", "intervals", "--p", "7", "--ell-max", "4"], capsys
    )
    assert code == 1
    even, odd = json.loads(out)["checks"]
    assert even["passed"] and even["detail"]["witnesses"]
    assert not odd["passed"]
    assert odd["detail"]["witnesses"] == [] and odd["detail"]["failures"] == []
    assert odd["detail"]["skipped"] == [2] and odd["detail"]["skipped_count"] == 1


def test_verify_intervals_reports_a_failed_guarantee_as_records(capsys, monkeypatch):
    # an all-odd table holds no even value: every even interval fails
    # once the table covers it, as a record in the report, with nothing
    # on stderr; the odd intervals still find their witnesses
    monkeypatch.setattr(
        tables, "parity_table", lambda params, n: TruncSeriesF2((1 << (n + 1)) - 1, n)
    )
    argv = ["verify", "--suite", "intervals", "--p", "5", "--ell-max", "13"]
    failures = [
        {
            "ell": ell,
            "error": f"no even value of C-bar_{{5,1}} in [{ell}, {ell * (3 * ell + 1) // 2}] "
            f"(l = {ell}); this contradicts a proven statement",
        }
        for ell in (4, 7, 10, 13)
    ]
    assert failures[0]["error"] == (
        "no even value of C-bar_{5,1} in [4, 26] (l = 4); this contradicts a proven statement"
    )
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (1, "")
    even, odd = json.loads(out)["checks"]
    assert not even["passed"] and even["detail"]["witnesses"] == []
    assert even["detail"]["failures"] == failures and even["detail"]["failure_count"] == 4
    assert odd["passed"] and [w["n"] for w in odd["detail"]["witnesses"]] == [3, 9, 15, 21]
    assert sha256(out.encode()).hexdigest() == (
        "d48ad5e1a6c4f8e429a0358e2f95d51ea4f6f07c3e96f6ef9a82c331fdcf7866"
    )
    code, out, err = run_cli(argv + ["--format", "plain"], capsys)
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[0].startswith("FAIL intervals/even-witness-p5-ell13 ")
    assert str(failures)[1:-1] in lines[0]
    assert lines[1].startswith("PASS intervals/odd-witness-p5-ell13 ")
    assert lines[2:] == ["FAIL intervals"]
    assert sha256(out.encode()).hexdigest() == (
        "d5961f3867cbcd6297b00cc00b8cb8e27a92276aa8049a4688d4c9ce76459e42"
    )


@pytest.mark.parametrize("p", ["9", "4"])
def test_verify_intervals_rejects_composite_p(capsys, p):
    code, out, err = run_cli(
        ["verify", "--suite", "intervals", "--p", p, "--ell-max", "13"], capsys
    )
    assert code == 2 and "p must be a prime >= 5" in err
    assert out == ""


def test_verify_intervals_memory_does_not_grow_with_p(capsys):
    # the precondition keeps no list of the residues i <= p/2; ell = 2's
    # target 10 = p - (p - 10) lies on the form of i = 5, not of i = 1
    tracemalloc.start()
    try:
        code, out, _ = run_cli(
            ["verify", "--suite", "intervals", "--p", "10000019", "--ell-max", "4"], capsys
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert [c["detail"]["skipped_count"] for c in json.loads(out)["checks"]] == [0, 0]
    assert peak < 1_000_000


def test_density_accepts_a_large_prime_quickly(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(["density", "--p", str(2**61 - 1), "--x", "10"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["p"] == 2**61 - 1


def test_density_rejects_p_past_the_prime_test_bound(capsys):
    code, out, err = run_cli(["density", "--p", str(2**89 - 1), "--x", "10"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("parameter error: p must be below 3317044064679887385961981")


def test_verify_parity_facts_reads_to_the_parity_cap(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "parity-facts", "--n-max", "1000000"], capsys
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_intervals_at_the_cap(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "intervals", "--p", "5", "--ell-max", "816"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    even, odd = payload["checks"]
    assert even["detail"]["witnesses"][-1]["ell"] == 814  # the last l = 1 mod 3
    assert odd["detail"]["witnesses"][-1]["ell"] == 815  # the last l = 2 mod 3


def test_density_at_the_parity_cap(capsys):
    code, out, err = run_cli(["density", "--p", "5", "--x", "1000001"], capsys)
    assert code == 2 and "--x must be in [4, 1000000]" in err
    assert out == ""
    code, out, _ = run_cli(["density", "--p", "5", "--x", "1000000"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["X"] == 1_000_000
    assert payload["even_count"] + payload["odd_count"] == 1_000_000
    assert payload["even_dominates"] and payload["odd_dominates"]


def test_density_below_the_first_even_term_exits_2(capsys):
    # X = 3 lies below the even sequence's first term 4: one check in the
    # command refuses it and states the range
    code, out, err = run_cli(["density", "--p", "5", "--x", "3"], capsys)
    assert code == 2 and out == ""
    assert err == "parameter error: --x must be in [4, 1000000]\n"
    code, out, _ = run_cli(["density", "--p", "5", "--x", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert (payload["nu_even"], payload["nu_odd"]) == (0, 1)


def test_verify_exclusions_cap_exits_2(capsys):
    code, out, err = run_cli(
        ["verify", "--suite", "exclusions", "--p", "5", "--ell-max", "1000001"], capsys
    )
    assert code == 2 and "--ell-max must be <= 1000000" in err
    assert out == ""
