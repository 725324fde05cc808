"""Verdict logic of the perf gate on canned benchmark output.

``PYTHONPATH=src python -m pytest benchmarks/test_compare.py -q``; the
real benchmark never runs here.
"""

import json

import pytest

from benchmarks import compare

SPEC = json.loads(compare.SPEC.read_text())
BOUNDS = {metric["name"]: metric["bound"] for metric in SPEC["end_to_end"]}
TYPICAL = {"host_us_per_req": 273.0, "setup_s": 0.42, "peak_rss_mb": 61.0}
#: Run-to-run jitter of the three canned runs on each side.
JITTER = (0.98, 1.0, 1.03)


def run(jitter, scale, failed):
    """One benchmark run as parsed from what it prints; *scale* maps
    ``workload/metric`` to a factor on that metric's base value."""
    metrics = {
        key: {
            "value": TYPICAL[metric["name"]] * jitter * scale.get(key, 1.0),
            "unit": metric["unit"],
        }
        for workload in SPEC["workloads"]
        for metric in SPEC["end_to_end"]
        for key in [f"{workload['name']}/{metric['name']}"]
    }
    return compare.last_json("== two_tier: 12 timed reps\n" + json.dumps({
        "correct": failed == 0, "attempted": 95, "failed": failed,
        "metrics": metrics,
    }) + "\n")


def side(scale=None, failed=(0, 0, 0)):
    return [run(jitter, scale or {}, fails)
            for jitter, fails in zip(JITTER, failed)]


def verdicts(result):
    return {row["metric"]: row["verdict"] for row in result["rows"]}


def test_unchanged_code_passes_with_a_row_per_workload_and_metric():
    result = compare.gate(SPEC, side(), side())
    assert result["passed"]
    assert len(result["rows"]) == len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    assert set(verdicts(result).values()) == {"ok"}
    assert result["rows"][0]["ratio"] == pytest.approx(1.0)


def test_thirty_percent_slower_fails_the_25_percent_bound():
    result = compare.gate(
        SPEC, side(), side({"two_tier/host_us_per_req": 1.30})
    )
    assert not result["passed"]
    bad = {k for k, v in verdicts(result).items() if v != "ok"}
    assert bad == {"two_tier/host_us_per_req"}
    row = next(r for r in result["rows"]
               if r["metric"] == "two_tier/host_us_per_req")
    assert row["ratio"] == pytest.approx(1.30)


def test_twenty_percent_slower_passes():
    result = compare.gate(
        SPEC, side(), side({"two_tier/host_us_per_req": 1.20})
    )
    assert result["passed"]


def test_twelve_percent_more_memory_fails_the_10_percent_bound():
    result = compare.gate(
        SPEC, side(), side({"fanout500/peak_rss_mb": 1.12})
    )
    assert not result["passed"]
    assert verdicts(result)["fanout500/peak_rss_mb"] == "WORSE"


def test_a_failed_change_run_fails_the_gate():
    result = compare.gate(SPEC, side(), side(failed=(0, 1, 0)))
    assert not result["passed"]
    assert result["change_failed"] == 1
    assert set(verdicts(result).values()) == {"ok"}


def test_failed_parent_runs_alone_do_not_fail_the_gate():
    # A change that re-baselines golden.json fails the parent's digests.
    result = compare.gate(SPEC, side(failed=(20, 20, 20)), side())
    assert result["passed"]
    assert result["parent_failed"] == 60


def test_a_metric_the_change_did_not_report_fails():
    runs = side()
    for parsed in runs:
        del parsed["metrics"]["retry_storm/setup_s"]
    result = compare.gate(SPEC, side(), runs)
    assert not result["passed"]
    assert verdicts(result)["retry_storm/setup_s"] == "missing"


def test_bounds_come_from_benchmark_json():
    assert BOUNDS == {
        "host_us_per_req": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.1,
    }
    slower = side({"two_tier/host_us_per_req": 1.30})
    rows = compare.gate(SPEC, side(), slower)["rows"]
    assert {row["bound"] for row in rows} == set(BOUNDS.values())
    # Widening the bound in the spec, and nowhere else, passes the same runs.
    wide = json.loads(compare.SPEC.read_text())
    for metric in wide["end_to_end"]:
        if metric["name"] == "host_us_per_req":
            metric["bound"] = 0.35
    assert compare.gate(wide, side(), slower)["passed"]


def test_output_without_a_json_line_cannot_be_judged():
    with pytest.raises(compare.GateError):
        compare.last_json("Traceback (most recent call last):\n")


def test_sources_compile_even_when_bytecode_writing_is_off(
    tmp_path, monkeypatch
):
    # A fresh checkout and a long-used tree must both start the pairs
    # with warm caches, whatever PYTHONDONTWRITEBYTECODE says.
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    for part in ("src/pkg", "benchmarks/perf"):
        (tmp_path / part).mkdir(parents=True)
        (tmp_path / part / "mod.py").write_text("VALUE = 1\n")
    compare.compile_sources(tmp_path, SPEC)
    for part in ("src/pkg", "benchmarks/perf"):
        assert list((tmp_path / part / "__pycache__").glob("mod.*.pyc"))


def test_a_tree_that_cannot_compile_cannot_be_measured(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "broken.py").write_text("def (\n")
    with pytest.raises(compare.GateError):
        compare.compile_sources(tmp_path, SPEC)
