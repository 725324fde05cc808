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


def row(result, metric):
    return next(r for r in result["rows"] if r["metric"] == metric)


def test_rows_count_the_pairs_the_change_won_and_the_parents_spread():
    # The change is 10% faster in every pair on one metric; elsewhere
    # each pair is a tie, which the change does not win.
    result = compare.gate(
        SPEC, side(), side({"two_tier/host_us_per_req": 0.90})
    )
    faster = row(result, "two_tier/host_us_per_req")
    assert (faster["won"], faster["pairs"]) == (3, 3)
    assert row(result, "two_tier/setup_s")["won"] == 0
    # Inclusive quartiles of the parent's three runs (0.98, 1.0, 1.03
    # times the typical value): 0.99 and 1.015.
    assert faster["parent_iqr"] == pytest.approx(273.0 * 0.025)
    assert result["passed"]


def test_a_metric_where_higher_is_better_is_won_by_the_higher_value():
    spec = dict(SPEC, end_to_end=[
        dict(metric, better="higher") for metric in SPEC["end_to_end"]
    ])
    result = compare.gate(
        spec, side(), side({"two_tier/host_us_per_req": 1.10})
    )
    assert row(result, "two_tier/host_us_per_req")["won"] == 3


def test_one_pair_has_no_spread():
    result = compare.gate(SPEC, side()[:1], side()[:1])
    assert {r["parent_iqr"] for r in result["rows"]} == {None}
    assert result["passed"]


def test_one_workload_is_run_and_judged_alone(monkeypatch):
    spec = compare.only_workload(SPEC, "social_network")
    result = compare.gate(spec, side(), side())
    assert {r["metric"].split("/")[0] for r in result["rows"]} == {
        "social_network"
    }
    assert result["passed"]
    commands = []

    class Done:
        returncode = 0
        stdout = json.dumps(side()[0])

    class OneWorkload(Done):
        # The harness names one workload's metrics without a prefix.
        stdout = json.dumps(dict(side()[0], metrics={
            "host_us_per_req": {"value": 500.0, "unit": "us"},
        }))

    def run(command, **kwargs):
        commands.append(command)
        return OneWorkload() if "--workload" in command else Done()

    monkeypatch.setattr(compare.subprocess, "run", run)
    one = compare.run_side(compare.ROOT, spec)
    compare.run_side(compare.ROOT, SPEC)
    assert commands[0][-2:] == ["--workload", "social_network"]
    assert "--workload" not in commands[1]
    assert one["metrics"] == {
        "social_network/host_us_per_req": {"value": 500.0, "unit": "us"},
    }
    with pytest.raises(compare.GateError):
        compare.only_workload(SPEC, "no_such_workload")


def test_pairs_and_workload_pass_through_to_the_measurement(monkeypatch):
    seen = {}

    def measure(base, spec, pairs=compare.PAIRS):
        seen.update(base=base, pairs=pairs,
                    workloads=[w["name"] for w in spec["workloads"]])
        return dict(compare.gate(spec, side(), side()), base=base)

    monkeypatch.setattr(compare, "measure", measure)
    assert compare.main(["/some/parent", "--pairs", "10",
                         "--workload", "two_tier"]) == 0
    assert seen == {"base": "/some/parent", "pairs": 10,
                    "workloads": ["two_tier"]}
    assert compare.main(["HEAD"]) == 0
    assert seen["pairs"] == compare.PAIRS
    assert len(seen["workloads"]) == len(SPEC["workloads"])
    assert compare.main(["HEAD", "--workload", "nope"]) == 2


def test_a_parent_directory_is_copied_and_left_untouched(tmp_path):
    base = tmp_path / "base"
    for part in ("src/repro", "benchmarks/perf", ".git", "src/__pycache__"):
        (base / part).mkdir(parents=True)
    (base / "src/repro/mod.py").write_text("VALUE = 1\n")
    (base / "benchmarks/perf/old.py").write_text("OLD = 1\n")
    (base / "src/__pycache__/mod.pyc").write_bytes(b"")
    before = sorted(p.relative_to(base) for p in base.rglob("*"))
    dest = tmp_path / "copy"
    compare.copy_tree(base, dest)
    assert (dest / "src/repro/mod.py").read_text() == "VALUE = 1\n"
    assert not (dest / ".git").exists()
    assert not (dest / "src/__pycache__").exists()
    assert sorted(p.relative_to(base) for p in base.rglob("*")) == before
    with pytest.raises(compare.GateError):
        compare.copy_tree(tmp_path / "copy" / "benchmarks", tmp_path / "x")


def test_a_parent_directory_is_measured_from_a_copy(tmp_path, monkeypatch):
    base = tmp_path / "base"
    (base / "src" / "repro").mkdir(parents=True)
    (base / "benchmarks" / "perf").mkdir(parents=True)
    (base / "benchmarks" / "perf" / "stale.py").write_text("STALE = 1\n")
    before = sorted(p.relative_to(base) for p in base.rglob("*"))
    trees = []

    def run_side(tree, spec):
        trees.append(tree)
        if tree != compare.ROOT:
            perf = tree / "benchmarks" / "perf"
            assert not (perf / "stale.py").exists()
            assert (perf / "harness.py").exists()  # this tree's harness
        return side()[len(trees) % 3]

    monkeypatch.setattr(compare, "run_side", run_side)
    monkeypatch.setattr(compare, "compile_sources", lambda tree, spec: None)
    result = compare.measure(str(base), SPEC, pairs=2)
    assert result["base"] == str(base.resolve())
    assert result["pairs"] == 2 and len(trees) == 4
    # Alternating order: parent first, then change first.
    assert trees[1] == trees[2] == compare.ROOT
    assert sorted(p.relative_to(base) for p in base.rglob("*")) == before
    assert not trees[0].exists()  # the copy is removed afterwards
