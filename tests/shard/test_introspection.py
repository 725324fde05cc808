"""Shard-runtime introspection: coordinator counters, straggler
attribution, per-shard scrape merging, and their reconciliation."""

import pytest

from repro.apps import social_network, two_tier
from repro.analysis import reconcile_shard_runtime
from repro.distributions import Deterministic
from repro.experiments.options import RunOptions
from repro.experiments.tail_at_scale import build_fanout_cluster
from repro.hardware import NetworkFabric
from repro.runner import derive_seed
from repro.shard.adapter import run_world_sharded, sharded_load_point

from ..vanilla import vanilla_point


def det_fabric():
    return NetworkFabric(propagation=Deterministic(50e-6))


SEED = derive_seed(11, 1000.0)
SN = dict(qps=1000.0, duration=0.05, warmup=0.01)


def sharded(build, cfg, shards, **options):
    return sharded_load_point(
        build, cfg["qps"], cfg["duration"], cfg["warmup"], SEED,
        options=RunOptions(shards=shards, **options), mode="inline",
        network=det_fabric(),
    )


@pytest.fixture(scope="module")
def scraped_point():
    return sharded(social_network, SN, 4, scrape_interval=0.01)


class TestCoordinatorCounters:
    def test_shard_sync_attribution_reconciles(self, scraped_point):
        sync = scraped_point.shard_sync
        assert sync["shards"] == 4
        assert sync["rounds"] > 0 and sync["messages_exchanged"] > 0
        assert sync["stalls"] == 0 and sync["restarts"] == 0
        # Exactly one shard bounds each conservative round, so the
        # attribution must sum to the round count exactly.
        assert sum(sync["straggler_rounds"].values()) == sync["rounds"]

    def test_runtime_block_reconciles_with_itself(self, scraped_point):
        runtime = scraped_point.timeline["shard_runtime"]
        reconcile_shard_runtime(runtime)  # raises on any mismatch
        assert runtime["rounds"] == scraped_point.shard_sync["rounds"]
        assert set(runtime["per_shard"]) == {"0", "1", "2", "3"}
        for stats in runtime["per_shard"].values():
            assert stats["events"] >= 0
            assert stats["busy_wall_s"] >= 0.0
            assert stats["blocked_wall_s"] >= 0.0
        mailbox = runtime["mailbox_volume"]
        assert sum(mailbox.values()) == runtime["messages_exchanged"]

    def test_reconcile_raises_on_cooked_counters(self, scraped_point):
        runtime = dict(scraped_point.timeline["shard_runtime"])
        cooked = dict(runtime["straggler_rounds"])
        shard = next(iter(cooked))
        cooked[shard] += 1
        with pytest.raises(Exception, match="straggler"):
            reconcile_shard_runtime(dict(runtime, straggler_rounds=cooked))

    def test_fanout_world_reports_stragglers_too(self):
        sync = run_world_sharded(
            build_fanout_cluster, 100.0, 3, 2, max_requests=30,
            mode="inline", cluster_size=8, slow_fraction=0.1,
            network=det_fabric(),
        ).shard_sync
        assert sync["stalls"] >= 0
        assert sum(sync["straggler_rounds"].values()) == sync["rounds"]


class TestScrapeUnderShards:
    def test_series_merge_disjointly_across_shards(self, scraped_point):
        series = scraped_point.timeline["series"]
        world = social_network(seed=SEED)
        # Every tier of the full world appears exactly once, no matter
        # which shard owned its machines.
        for service in world.deployment.services:
            assert f"util/{service}" in series
            assert f"depth/{service}" in series
        # Only the client-owning shard contributes client series.
        assert "client/qps" in series
        for data in series.values():
            assert len(data["times"]) == len(data["values"]) > 0

    def test_sharded_names_are_vanilla_minus_registry_series(self):
        # Registry scraping is vanilla-only: a sharded point scrapes
        # every tier and client series a vanilla point does, and none
        # of the ``counter/*``/``gauge/*`` ones.
        vanilla = vanilla_point(
            social_network, **SN, seed=SEED,
            options=RunOptions(scrape_interval=0.01), network=det_fabric(),
        ).timeline["series"]
        shard = sharded(
            social_network, SN, 2, scrape_interval=0.01,
        ).timeline["series"]
        assert set(shard) <= set(vanilla)
        missing = set(vanilla) - set(shard)
        assert missing and missing == {
            name for name in vanilla
            if name.startswith(("counter/", "gauge/"))
        }

    def test_scrape_on_outcome_matches_scrape_off(self):
        off = sharded(social_network, SN, 2)
        on = sharded(social_network, SN, 2, scrape_interval=0.01)
        assert off.timeline is None and on.timeline is not None
        for field in ("offered_qps", "throughput", "mean", "p50", "p95",
                      "p99", "completed", "slo"):
            assert getattr(on, field) == getattr(off, field), field

    def test_scrape_off_sharded_still_bit_identical_to_vanilla(self):
        # The scrape plumbing must not perturb the scrape-off path:
        # dataclass equality (which now includes the timeline field,
        # None on both sides) still holds against the vanilla engine.
        point = sharded(social_network, SN, 2)
        ref = vanilla_point(social_network, **SN, seed=SEED,
                            network=det_fabric())
        assert point.timeline is None and ref.timeline is None
        assert point == ref

    def test_timeline_artifact_written_per_point(self, tmp_path):
        sharded(
            social_network, SN, 2, scrape_interval=0.01,
            trace_dir=tmp_path,
        )
        from repro.telemetry import load_timeline

        payload = load_timeline(tmp_path / "qps1000.timeseries.json")
        assert payload["meta"]["shards"] == 2
        assert payload["shard_runtime"]["rounds"] > 0
