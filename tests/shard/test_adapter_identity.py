"""Generic shard adapter vs the single-simulator reference.

The contracts under test (see ``repro.shard.adapter``):

* ``shards=1`` is bit-identical to vanilla for every ported topology
  (the planner falls back onto the *same* ``run_world`` call with the
  same derived seed, whose point is the same ``sweep_point``).
* Under a draw-free fabric, shard counts are bit-identical to each
  other at any load, and — at loads where no two messages hit the same
  queue at the same instant, as here — bit-identical to the vanilla
  engine too, for the two-tier chain and the Social Network graph.
* Telemetry lifted by this PR — ``trace``/``trace_dir``, ``slo``,
  ``mix`` — merges at the root into the same results the vanilla path
  produces, and ships **nothing** cross-shard when switched off.
* Supervision/replay (shard kill + journal replay) works unchanged for
  adapter-built worlds.
"""

import json
from pathlib import Path

import pytest

from repro.apps import social_network, two_tier
from repro.distributions import Deterministic
from repro.errors import ShardingError
from repro.experiments.loadsweep import find_shard_journal, shard_journal_name
from repro.experiments.options import RunOptions
from repro.faults.plan import FaultPlan
from repro.hardware import NetworkFabric
from repro.runner import derive_seed
from repro.shard.adapter import (
    build_world_shard_host,
    sharded_load_point,
)
from repro.shard.partition import plan_shards
from repro.shard.worker import run_sharded

from ..vanilla import vanilla_point


def det_fabric():
    return NetworkFabric(propagation=Deterministic(50e-6))


SEED = derive_seed(11, 2000.0)
TT = dict(qps=2000.0, duration=0.05, warmup=0.01)
SN = dict(qps=1000.0, duration=0.05, warmup=0.01)


def vanilla(build, cfg, mix=None, **options):
    return vanilla_point(build, **cfg, seed=SEED,
                         options=RunOptions(**options), mix=mix,
                         network=det_fabric())


def sharded(build, cfg, shards, mode="inline", mix=None, **options):
    return sharded_load_point(
        build, cfg["qps"], cfg["duration"], cfg["warmup"], SEED,
        options=RunOptions(shards=shards, **options), mode=mode, mix=mix,
        network=det_fabric(),
    )


class TestBitIdentity:
    @pytest.mark.parametrize("shards", [2])
    def test_two_tier_matches_vanilla(self, shards):
        assert sharded(two_tier, TT, shards) == vanilla(two_tier, TT)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_social_network_matches_vanilla(self, shards):
        assert (
            sharded(social_network, SN, shards)
            == vanilla(social_network, SN)
        )

    def test_social_shard_counts_agree_bitwise(self):
        assert (
            sharded(social_network, SN, 2)
            == sharded(social_network, SN, 4)
        )

    @pytest.mark.parametrize("build, cfg", [
        (two_tier, TT), (social_network, SN),
    ], ids=["two_tier", "social_network"])
    def test_shards1_falls_back_to_vanilla(self, build, cfg):
        # One shard never plans a sharded run; the fallback is the
        # untouched vanilla measurement with the same derived seed.
        assert sharded(build, cfg, 1) == vanilla(build, cfg)

    def test_zero_lookahead_falls_back_loudly(self):
        # The default fabric's Exponential propagation has minimum 0,
        # so the planner warns and the result is still exact.
        with pytest.warns(RuntimeWarning, match="lookahead"):
            point = sharded_load_point(
                two_tier, TT["qps"], TT["duration"], TT["warmup"],
                SEED, 2, mode="inline",
            )
        ref = vanilla_point(two_tier, **TT, seed=SEED)
        assert point == ref

    def test_audit_passes_sharded(self):
        assert (
            sharded(social_network, SN, 4, audit=True)
            == vanilla(social_network, SN)
        )


def _normalized_otlp(path):
    """OTLP export with trace ids mapped to first-appearance order.

    Request ids come from a process-global counter, so two runs in the
    same process never share literal ids — everything else must match.
    """
    doc = json.loads(Path(path).read_text())
    mapping = {}
    for rs in doc["resourceSpans"]:
        for ss in rs.get("scopeSpans", []):
            for span in ss["spans"]:
                tid = span["traceId"]
                span["traceId"] = mapping.setdefault(tid, len(mapping))
    return doc


class TestShardCount:
    def test_contradictory_counts_refused(self):
        # A positional count is shorthand for the options' own; two
        # different counts are refused, not picked between.
        with pytest.raises(ShardingError, match="give the count once"):
            sharded_load_point(
                two_tier, TT["qps"], TT["duration"], TT["warmup"], SEED,
                4, RunOptions(shards=2), mode="inline",
            )


class TestLiftedTelemetry:
    def test_trace_dir_merged_export(self, tmp_path):
        vdir, sdir = tmp_path / "vanilla", tmp_path / "sharded"
        vanilla(two_tier, TT, trace_dir=vdir)
        sharded(two_tier, TT, 2, trace_dir=sdir)
        for stem in ("qps2000.otlp.json", "qps2000.perfetto.json"):
            assert (sdir / stem).exists()
        assert (
            _normalized_otlp(sdir / "qps2000.otlp.json")
            == _normalized_otlp(vdir / "qps2000.otlp.json")
        )

    def test_trace_config_sampling_zero_is_noop(self, tmp_path):
        # A sampling-disabled trace export must not trip the blocked-knob
        # check nor perturb the measurement.
        assert (
            sharded(two_tier, TT, 2, trace_dir=tmp_path, trace_sample=0.0)
            == vanilla(two_tier, TT)
        )

    def test_slo_summary_matches_vanilla(self):
        vp = vanilla(two_tier, TT, slo="p99<5ms")
        sp = sharded(two_tier, TT, 2, slo="p99<5ms")
        assert vp.slo is not None
        assert sp == vp

    def test_mix_matches_vanilla(self):
        from repro.workload.request_mix import RequestMix, RequestType

        def mk_mix():
            return RequestMix([
                RequestType("read", 0.7, Deterministic(256.0)),
                RequestType("write", 0.3, Deterministic(512.0)),
            ])

        assert (
            sharded(social_network, SN, 2, mix=mk_mix())
            == vanilla(social_network, SN, mix=mk_mix())
        )

    def test_telemetry_off_ships_nothing(self):
        # With trace/slo off the per-shard results must carry no
        # telemetry freight at all — the finalize() payloads are the
        # cross-shard shipping surface.
        world = two_tier(seed=SEED, network=det_fabric())
        plan = plan_shards(
            world.cluster.machine_names, 2, world.cluster.network
        )
        assert plan.sharded
        common = dict(
            builder=two_tier,
            world_kwargs={"network": det_fabric()},
            seed=SEED,
            assignments=dict(plan.assignments),
            lookahead=plan.lookahead,
            qps=TT["qps"], duration=TT["duration"], warmup=TT["warmup"],
            mix=None, options=RunOptions(),
        )
        specs = [
            (build_world_shard_host, dict(common, shard_id=i))
            for i in range(plan.num_shards)
        ]
        edges = {(i, j): plan.lookahead for i in range(2) for j in range(2)
                 if i != j}
        results, _ = run_sharded(specs, edges, mode="inline")
        for result in results:
            assert "trace_spans" not in result
            assert "traces" not in result
            assert "slo" not in result


class TestSupervisedRecovery:
    def test_kill_replay_two_tier(self):
        # examples/chaos/shard_kill.json targets shards 1 and 3; the
        # two-tier world plans at most 2 shards, so keep the valid kill.
        from repro.faults import load_fault_plan

        plan = load_fault_plan("examples/chaos/shard_kill.json")
        plan = FaultPlan([f for f in plan.shard_faults() if f.shard < 2])
        assert len(plan) == 1
        clean = sharded(two_tier, TT, 2, mode="process")
        chaos = sharded(
            two_tier, TT, 2, mode="process",
            fault_plan=plan, shard_restarts=3,
        )
        recovery = chaos.shard_recovery
        assert recovery is not None and recovery["restarts"] == 1
        for field in ("offered_qps", "throughput", "mean", "p50", "p95",
                      "p99", "completed", "slo"):
            assert getattr(chaos, field) == getattr(clean, field)


class TestJournalNaming:
    def test_seed_keyed_names_never_collide(self):
        # 1000000.0 and 1000000.4 both format as 1e+06 under %g — the
        # legacy filenames collide, the seed-keyed ones cannot.
        qa, qb = 1000000.0, 1000000.4
        assert f"{qa:g}" == f"{qb:g}"
        sa, sb = derive_seed(1, qa), derive_seed(1, qb)
        assert shard_journal_name(sa) != shard_journal_name(sb)

    def test_find_prefers_seed_keyed_name(self, tmp_path):
        derived = derive_seed(1, 500.0)
        new = tmp_path / shard_journal_name(derived)
        legacy = tmp_path / "shard_journal_qps500.jsonl"
        legacy.write_text("")
        assert find_shard_journal(tmp_path, derived, 500.0) == legacy
        new.write_text("")
        assert find_shard_journal(tmp_path, derived, 500.0) == new

    def test_find_returns_none_when_missing(self, tmp_path):
        assert find_shard_journal(tmp_path, 1234, 500.0) is None
