"""The Fig 14 fan-out world through the generic shard adapter vs the
single-simulator reference.

The headline contract: under a draw-free propagation distribution the
sharded run is **bit-identical** to the vanilla engine for any shard
count, whether it stops after a request count (Fig 14) or at a
horizon (load sweeps); under a stochastic fabric, shard counts agree
bitwise with each other and with vanilla in distribution (the adapter
draws wire delays from per-machine streams).
"""

import numpy as np
import pytest

from repro.distributions import Deterministic, Exponential, Shifted
from repro.errors import ShardingError
from repro.experiments.loadsweep import run_world
from repro.experiments.tail_at_scale import (
    build_fanout_cluster,
    measure_tail_at_scale,
)
from repro.hardware import NetworkFabric
from repro.shard import run_world_sharded
from repro.workload import OpenLoopClient


def det_fabric():
    return NetworkFabric(propagation=Deterministic(20e-6))


def stochastic_fabric():
    return NetworkFabric(propagation=Shifted(Exponential(15e-6), 10e-6))


CFG = dict(qps=60.0, num_requests=40, seed=7)


def vanilla(cluster_size, slow_fraction, *, qps, seed, num_requests=None,
            stop_at=None, warmup=None, network=None):
    """The fan-out world on the single-simulator engine, reported in
    the adapter's terms."""
    world = build_fanout_cluster(
        cluster_size, slow_fraction, seed=seed, network=network
    )
    client = OpenLoopClient(
        world.sim, world.dispatcher, arrivals=qps,
        max_requests=num_requests, stop_at=stop_at,
    )
    client.start()
    world.sim.run(until=stop_at)
    times, values = client.latencies.samples()
    result = {
        "latencies": [float(v) for v in values],
        "completions": [float(t) for t in times],
        "outcomes": dict(client.outcomes),
        "requests_sent": client.requests_sent,
    }
    if warmup is not None:
        result["completed"] = client.latencies.count(
            since=warmup, until=stop_at
        )
    return result


def sharded(cluster_size, slow_fraction, *, qps, seed, shards,
            num_requests=None, mode="inline", **kwargs):
    return run_world_sharded(
        build_fanout_cluster, qps, seed, shards, max_requests=num_requests,
        mode=mode, cluster_size=cluster_size, slow_fraction=slow_fraction,
        **kwargs,
    )


class TestDeterministicFabricIdentity:
    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_count_mode_bit_identical(self, shards):
        ref = vanilla(10, 0.2, network=det_fabric(), **CFG)
        run = sharded(10, 0.2, shards=shards, network=det_fabric(), **CFG)
        assert run.shard_sync["shards"] == shards
        assert run.latencies == ref["latencies"]
        assert run.completions == ref["completions"]
        assert run.outcomes == ref["outcomes"]
        assert run.root["requests_sent"] == ref["requests_sent"]
        point = measure_tail_at_scale(
            10, 0.2, shards=shards, network=det_fabric(), **CFG
        )
        assert point == measure_tail_at_scale(
            10, 0.2, network=det_fabric(), **CFG
        )

    def test_duration_mode_bit_identical(self):
        kwargs = dict(qps=80.0, seed=11)
        ref = vanilla(8, 0.1, network=det_fabric(), stop_at=0.4,
                      warmup=0.1, **kwargs)
        run = sharded(8, 0.1, shards=2, network=det_fabric(),
                      duration=0.4, warmup=0.1, **kwargs)
        assert run.latencies == ref["latencies"]
        assert run.root["window"]["completed"] == ref["completed"]

    def test_process_mode_matches_inline(self):
        inline = sharded(8, 0.1, shards=2, network=det_fabric(), **CFG)
        process = sharded(8, 0.1, shards=2, network=det_fabric(),
                          mode="process", **CFG)
        assert process.shard_sync["mode"] == "process"
        assert process.latencies == inline.latencies
        for counter in ("rounds", "messages_exchanged"):
            assert process.shard_sync[counter] == inline.shard_sync[counter]


class TestStochasticFabric:
    def test_shard_counts_agree_bitwise(self):
        two = sharded(10, 0.2, shards=2, network=stochastic_fabric(), **CFG)
        three = sharded(10, 0.2, shards=3, network=stochastic_fabric(),
                        **CFG)
        assert two.latencies == three.latencies
        assert two.completions == three.completions

    def test_matches_vanilla_in_distribution(self):
        cfg = dict(CFG, num_requests=200)
        ref = vanilla(10, 0.2, network=stochastic_fabric(), **cfg)
        run = sharded(10, 0.2, shards=2, network=stochastic_fabric(), **cfg)
        assert run.outcomes == ref["outcomes"]
        assert run.root["requests_sent"] == ref["requests_sent"]
        # Wire delays come from per-machine streams instead of the
        # shared dispatcher stream: same distribution, different draws
        # — the percentiles must agree to well under the hop's scale.
        for q in (50, 99):
            assert np.percentile(run.latencies, q) == pytest.approx(
                np.percentile(ref["latencies"], q), rel=0.02
            )
        assert np.mean(run.latencies) == pytest.approx(
            np.mean(ref["latencies"]), rel=0.02
        )


class TestFallback:
    def test_zero_lookahead_falls_back_to_vanilla(self):
        with pytest.warns(RuntimeWarning, match="lookahead"):
            run = sharded(6, 0.0, shards=2, **CFG)
        assert run.shard_sync is None
        assert run == run_world(
            build_fanout_cluster, CFG["qps"], CFG["seed"],
            max_requests=CFG["num_requests"], cluster_size=6,
            slow_fraction=0.0,
        )
        reference = measure_tail_at_scale(6, 0.0, **CFG)
        with pytest.warns(RuntimeWarning, match="lookahead"):
            point = measure_tail_at_scale(6, 0.0, shards=2, **CFG)
        assert point == reference
        assert not hasattr(point, "shard_sync")

    def test_needs_some_termination(self):
        with pytest.raises(ShardingError, match="max_requests"):
            sharded(4, 0.0, shards=2, network=det_fabric(), qps=60.0,
                    seed=7)


class TestAccounting:
    def test_event_and_job_conservation(self):
        run = sharded(10, 0.2, shards=3, network=det_fabric(), **CFG)
        ref = vanilla(10, 0.2, network=det_fabric(), **CFG)
        # Every request completes and every latency sample survives
        # the cross-shard fan-out and fan-in.
        assert len(run.latencies) == len(ref["latencies"]) == 40
        assert run.shard_sync["rounds"] > 0
        assert run.shard_sync["messages_exchanged"] > 0
        assert sum(result["events"] for result in run.results) > 0
