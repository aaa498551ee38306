"""Tests of the benchmark's own request streams, checks and accounting.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CLI, TABLES = run.load_program()


def reply(req):
    TABLES.clear_caches()
    rc, out, _ = run.call(CLI, req.argv)
    return rc, out


def verdict(req, rc, payload):
    return checks.Checker().check(req, rc, json.dumps(payload))[0]


def test_changed_coefficient_is_caught():
    req = workloads._compute(5, 2, 300)
    rc, out = reply(req)
    assert checks.Checker().check(req, rc, out) == (checks.OK, "")
    payload = json.loads(out)
    for n in (7, 250):  # inside and beyond the directly counted prefix
        bad = json.loads(out)
        bad["values"][n] = str(int(bad["values"][n]) + 2)  # parities unchanged
        assert verdict(req, rc, bad) == checks.WRONG
    assert checks.andrews_identity_holds(5, 2, [int(v) for v in payload["values"]])


def test_flipped_parity_bit_is_caught():
    req = workloads._compute(7, 3, 200)
    rc, out = reply(req)
    bad = json.loads(out)
    bad["parities"][150] ^= 1
    assert verdict(req, rc, bad) == checks.WRONG

    req = workloads._density(11, 5000)
    rc, out = reply(req)
    assert checks.Checker().check(req, rc, out)[0] == checks.OK
    bad = json.loads(out)
    bad["even_count"] -= 1  # the census of a table with one bit flipped
    bad["odd_count"] += 1
    assert verdict(req, rc, bad) == checks.WRONG


def test_witness_off_the_smallest_n_is_caught():
    req = workloads._intervals(5, 40)
    rc, out = reply(req)
    assert checks.Checker().check(req, rc, out)[0] == checks.OK
    bits = checks.Checker().parity_bits(5)
    bad = json.loads(out)
    w = bad["checks"][0]["detail"]["witnesses"][-1]
    later = next(n for n in range(w["n"] + 1, w["hi"] + 1) if not (bits >> n) & 1)
    w["n"] = later  # still even and in the interval, but not the smallest
    assert verdict(req, rc, bad) == checks.WRONG


def test_benchmark_json_names_the_workloads():
    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_gives_the_same_requests():
    for name in workloads.WORKLOADS:
        first = workloads.request_list(name, 7, 2)
        assert first == workloads.request_list(name, 7, 2)
        assert first != workloads.request_list(name, 8, 2)


def test_rounds_have_a_fixed_share_of_known_fault_requests():
    for name in workloads.WORKLOADS:
        for seed in (1, 2):
            reqs = workloads.request_list(name, seed, 3)
            share = sum(r.known_fault for r in reqs) / len(reqs)
            assert share == (0.04 if name == "warm_session" else 0.0)


def test_known_fault_fail_counts_as_failed_and_pass_as_passed():
    req = workloads.KNOWN_FAULTS[0]
    rc, out = reply(req)
    status, _ = checks.Checker().check(req, rc, out)
    assert status == checks.KNOWN_FAULT
    tally = run.Tally()
    tally.add(status, "fault")
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, True)

    fixed = json.loads(out)  # the reply once the per-n check is mended
    fixed["checks"][1].update(passed=True, detail={"failures": []})
    fixed["passed"] = True
    status, _ = checks.Checker().check(req, 0, json.dumps(fixed))
    assert status == checks.OK
    tally.add(status, "")
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, True)


def test_a_fail_verdict_elsewhere_is_wrong():
    req = workloads._lemma1(5, 1, 300)
    rc, out = reply(req)
    bad = json.loads(out)
    bad["checks"][1]["passed"] = bad["passed"] = False
    status, _ = checks.Checker().check(req, 1, json.dumps(bad))
    assert status == checks.WRONG
    tally = run.Tally()
    tally.add(status, "wrong")
    assert (tally.failed, tally.correct) == (1, False)


def test_direct_count_matches_a_known_value():
    assert checks.direct_counts(3, 1, 4)[4] == 10  # C-bar_{3,1}(4) = 10


def test_traced_run_reports_every_per_layer_metric_and_counts_hits():
    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    recorder = spans.Recorder()
    recorder.install()
    try:
        req = workloads._compute(5, 1, 400)
        reply(req)  # clears the caches first: a miss
        run.call(CLI, req.argv)  # a hit
    finally:
        recorder.uninstall()
    assert CLI.tables.coefficients_theta is TABLES.coefficients_theta
    assert not hasattr(TABLES.coefficients_theta, "__wrapped__")
    metrics = recorder.metrics()
    assert sorted(metrics) == sorted(m["name"] for m in bench["per_layer"])
    assert metrics["tables.coefficients_theta.calls"]["value"] == 2
    assert metrics["tables.coefficients_theta.hits"]["value"] == 1
    assert metrics["tables.coefficients_theta.degrees"]["value"] == 800
    assert metrics["qseries.div.calls"]["value"] == 1
    assert metrics["cli.main.calls"]["value"] == 2


def test_checker_process_gives_the_same_verdicts():
    req = workloads._compute(5, 2, 300)
    rc, out = reply(req)
    bad = json.loads(out)
    bad["values"][250] = str(int(bad["values"][250]) + 2)
    checker = run.CheckerProcess()
    try:
        assert checker.check(req, rc, out) == (checks.OK, "")
        assert checker.check(req, rc, json.dumps(bad))[0] == checks.WRONG
        assert checker.check(req, rc, "not json")[0] == checks.WRONG
    finally:
        checker.close()
    assert checker.proc.returncode == 0
