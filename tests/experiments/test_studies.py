"""Tests for the tail-at-scale study, the comparison harness, and the
experiment registry (scaled-down runs)."""

import pytest

from repro.apps import single_memcached
from repro.errors import ConfigError
from repro.experiments import registry
from repro.experiments.comparison import bighouse_single_tier
from repro.experiments.tail_at_scale import (
    build_fanout_cluster,
    measure_tail_at_scale,
)


class TestTailAtScale:
    def test_all_leaves_visited(self):
        world = build_fanout_cluster(cluster_size=10, slow_fraction=0.0)
        from repro.workload import OpenLoopClient

        client = OpenLoopClient(
            world.sim, world.dispatcher, arrivals=50, max_requests=10
        )
        client.start()
        world.sim.run()
        for i in range(10):
            assert world.instance(f"leaf{i}").jobs_completed == 10

    def test_slow_servers_inflate_tail(self):
        clean = measure_tail_at_scale(
            40, 0.0, qps=30, num_requests=150, seed=2
        )
        dirty = measure_tail_at_scale(
            40, 0.10, qps=30, num_requests=150, seed=2
        )
        assert dirty.p99 > 2 * clean.p99

    def test_larger_cluster_raises_tail_with_fixed_slow_fraction(self):
        small = measure_tail_at_scale(5, 0.05, qps=30, num_requests=150, seed=2)
        large = measure_tail_at_scale(80, 0.05, qps=30, num_requests=150, seed=2)
        assert large.p99 > small.p99

    def test_validation(self):
        with pytest.raises(ConfigError):
            build_fanout_cluster(0, 0.0)
        with pytest.raises(ConfigError):
            build_fanout_cluster(5, 1.5)
        with pytest.raises(ConfigError):
            build_fanout_cluster(5, 0.1, slow_factor=0.5)


class TestComparison:
    def test_bighouse_p99_grows_with_load(self):
        light = bighouse_single_tier(
            single_memcached, 20_000, servers=4, mean_request_bytes=256
        )
        heavy = bighouse_single_tier(
            single_memcached, 170_000, servers=4, mean_request_bytes=256
        )
        assert heavy > light


class TestRegistry:
    def test_lookup_known_experiment(self):
        spec = registry.get("fig8")
        assert spec.paper_ref == "Figure 8"
        assert callable(spec.runner)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            registry.get("fig99")

    def test_all_experiments_unique_ids(self):
        specs = registry.all_experiments()
        ids = [s.exp_id for s in specs]
        assert len(ids) == len(set(ids))
        assert len(ids) >= 11

    def test_registry_runner_executes(self):
        # The cheapest registry entry at reduced scale.
        spec = registry.get("fig14")
        points = spec.run(
            cluster_sizes=(5,), slow_fractions=(0.0,), num_requests=40
        )
        assert len(points) == 1
        assert points[0].p99 > 0

    def test_sweep_experiments_support_jobs(self):
        for exp_id in ("fig5", "fig6", "fig8", "fig10", "fig12a",
                       "fig12b", "fig14"):
            assert registry.get(exp_id).supports("jobs"), exp_id

    def test_jobs_ignored_by_serial_runners(self):
        # Inherently serial experiments (timelines) must not receive a
        # jobs kwarg they would choke on.
        spec = registry.get("fig16")
        assert not spec.supports("jobs")
        import inspect
        # run(jobs=4) on such a spec only forwards declared kwargs.
        sig = inspect.signature(spec.runner)
        assert "jobs" not in sig.parameters


class TestParallelGrid:
    def test_tail_at_scale_jobs_identity(self):
        from repro.experiments.tail_at_scale import tail_at_scale_sweep

        kwargs = dict(
            cluster_sizes=(5, 10), slow_fractions=(0.0, 0.1),
            qps=50, num_requests=30, seed=4,
        )
        serial = tail_at_scale_sweep(jobs=1, **kwargs)
        fanned = tail_at_scale_sweep(jobs=2, **kwargs)
        assert fanned == serial
        # Grid order: fractions outer, sizes inner — unchanged.
        assert [(p.cluster_size, p.slow_fraction) for p in serial] == [
            (5, 0.0), (10, 0.0), (5, 0.1), (10, 0.1)
        ]
