"""Replicated load points: seeded by ``derive_seed``, mapped and
journaled through the one sweep path, stopped by the shared rule."""

import json
import time
import warnings

from repro.apps import thrift_echo
from repro.experiments import replicate_at_load
from repro.runner import derive_seed

#: At 15 kQPS and seed 1 the p99s converge at the third replication,
#: so the second round of ``jobs=2`` (replications 2 and 3) runs one
#: past the prefix.
QPS = 15000.0
FAST = dict(duration=0.1, warmup=0.02, min_replications=2,
            max_replications=6, tolerance=0.02, seed=1)


def journal(run_dir):
    lines = (run_dir / "journal.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def test_jobs_do_not_change_the_result():
    serial = replicate_at_load(thrift_echo, QPS, jobs=1, **FAST)
    fanned = replicate_at_load(thrift_echo, QPS, jobs=2, **FAST)
    assert serial.converged and serial.replications == 3
    assert fanned == serial
    assert fanned.points == serial.points


def test_rerun_over_run_dir_recomputes_nothing(tmp_path):
    run_dir = tmp_path / "run"
    first = replicate_at_load(thrift_echo, QPS, jobs=2, run_dir=run_dir,
                              **FAST)
    entries = journal(run_dir)
    # Every replication the rounds ran is journaled, the one past the
    # converged prefix included, each under its own derived seed.
    assert first.replications == 3
    assert sorted(e["seed"] for e in entries) == sorted(
        derive_seed(1, QPS, k) for k in range(4)
    )
    again = replicate_at_load(thrift_echo, QPS, jobs=1, run_dir=run_dir,
                              **FAST)
    assert again == first
    assert len(journal(run_dir)) == len(entries)


def test_shards_fall_back_to_the_same_result():
    # The default fabric has no lookahead, so two shards fall back to
    # one through the run door; the replications must not notice.
    plain = replicate_at_load(thrift_echo, QPS, **FAST)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sharded = replicate_at_load(thrift_echo, QPS, shards=2, **FAST)
    assert sharded == plain


def test_manifest_summarises_every_round(tmp_path):
    run_dir = tmp_path / "run"
    replicate_at_load(thrift_echo, QPS, jobs=2, run_dir=run_dir,
                      slo="p99<5ms", **FAST)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["slo"]["p99<5ms"]["points"] == len(journal(run_dir)) == 4


def test_manifest_describes_the_whole_run_not_its_last_round(tmp_path):
    # jobs=1 runs two rounds: replications 0 and 1, then 2 (converged).
    run_dir = tmp_path / "run"
    began = time.perf_counter()
    first = replicate_at_load(thrift_echo, QPS, run_dir=run_dir, **FAST)
    elapsed = time.perf_counter() - began
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert first.replications == 3
    assert manifest["resumed_points"] == 0
    # The last round measured one replication of three, so a manifest
    # timing that round alone would show about a third of the call.
    assert 0.75 * elapsed <= manifest["wall_time_s"] <= elapsed
    # The rerun resumes both rounds from the journal: all three.
    again = replicate_at_load(thrift_echo, QPS, run_dir=run_dir, **FAST)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert again == first
    assert manifest["resumed_points"] == 3 == len(journal(run_dir))
