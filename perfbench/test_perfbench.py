"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They run from any directory; the traced and untraced runs take about a
minute together.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

cases = run.import_cases()


def _first_passes(workload, seed, count=2):
    return [list(p) for p in islice(cases.passes(workload, seed), count)]


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_same_seed_same_cases_other_seed_other_q(workload):
    first = _first_passes(workload, 11)
    assert first == _first_passes(workload, 11)
    other = _first_passes(workload, 12)
    qs = {c.q for p in first for c in p}
    assert qs.isdisjoint({c.q for p in other for c in p})
    # full-mantissa doubles, not round values
    assert all(len(repr(q)) > 10 for q in qs)


def test_verify_all_shares_one_q_per_pass():
    for p in _first_passes("verify-all", 3, 3):
        assert len({c.q for c in p}) == 1


def test_classifier_counts_exception(tmp_path):
    bad_q = cases.Case("suite", 1.5, (("digits", None), ("nmax", 4),
                                      ("suite", "dg-gram")))
    outcome = cases.run_case(bad_q, str(tmp_path))
    assert not outcome.ok and outcome.reason.startswith("ValueError")


def test_classifier_counts_failed_verdict(tmp_path):
    # a starved precision budget: the suite says passed=false
    starved = cases.Case("suite", 0.5, (("digits", 8), ("nmax", 12),
                                        ("suite", "mac-gram")))
    outcome = cases.run_case(starved, str(tmp_path))
    assert not outcome.ok and outcome.reason == "verdict passed=false"


def test_classifier_counts_deviation_over_tolerance():
    assert not cases.judge(2e-8, 1e-8).ok
    assert not cases.judge(float("nan"), 1e-8).ok
    assert cases.judge(1e-9, 1e-8).ok
    assert cases.judge(0.0, 1e-8).headroom() == cases.HEADROOM_CEILING


def test_classifier_counts_malformed_cli_output():
    with pytest.raises(cases.SchemaError):
        cases._load('{"schema": "other", "command": "gram"}', "gram")


def test_verify_reports_stay_out_of_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    verify = [c for c in _first_passes("verify-all", 5, 1)[0]
              if c.args["argv"][0] == "verify"
              and "poisson" in c.args["argv"]][0]
    assert cases.run_case(verify, str(scratch)).ok
    assert list(tmp_path.iterdir()) == [scratch]
    assert list(scratch.iterdir()) == []


def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run.main(argv) == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_declared_workloads_are_the_runners():
    assert tuple(w["name"] for w in SPEC["workloads"]) == cases.WORKLOADS


def test_untraced_run_prints_exactly_the_end_to_end_metrics():
    result = _run(["--workload", "verify-all", "--seed", "2",
                   "--seconds", "0", "--trace", "0"])
    assert result["correct"] and result["failed"] == 0
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _declared("end_to_end")


def test_traced_run_prints_the_per_layer_metrics_and_matches_untraced():
    result = _run(["--workload", "verify-all", "--seed", "2",
                   "--seconds", "0", "--trace", "1"])
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _declared("per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.mismatches"] == 0
    assert result["correct"]
