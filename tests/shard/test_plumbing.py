"""--shards plumbing: experiment registry, load sweeps, tail@scale
routing, and the CLI all thread the shard count through — and refuse
loudly where the sharded core cannot honour a knob."""

import pytest

from repro import apps
from repro.__main__ import main
from repro.apps.base import (
    add_client_machine,
    add_one_stage_service,
    new_world,
)
from repro.distributions import Deterministic, Exponential
from repro.errors import ReproError, ShardingError
from repro.experiments import registry
from repro.experiments.loadsweep import measure_at_load
from repro.experiments.tail_at_scale import (
    build_fanout_cluster,
    measure_tail_at_scale,
)
from repro.hardware import Machine, NetworkFabric
from repro.shard.adapter import validate_world_shardable
from repro.topology import PathNode, PathTree


#: Every repro.apps builder, at a load its world carries.
APP_LOADS = {
    "fanout": 1000.0,
    "load_balanced": 1000.0,
    "single_memcached": 5000.0,
    "single_nginx": 1000.0,
    "social_network": 1000.0,
    "synthetic_graph": 500.0,
    "three_tier": 1000.0,
    "thrift_echo": 2000.0,
    "two_tier": 2000.0,
}


def det_fabric():
    return NetworkFabric(propagation=Deterministic(20e-6))


def _two_sinks(machines, seed=0, network=None):
    """One-stage services a, b, c on *machines*; a fans out to the two
    sinks b and c."""
    world = new_world(network, seed)
    add_client_machine(world)
    for machine in sorted(set(machines)):
        world.cluster.add_machine(Machine(machine, 4))
    for tier, machine in zip("abc", machines):
        add_one_stage_service(world, machine, tier, Exponential(100e-6), 1)
    tree = PathTree("two_sinks")
    for tier in "abc":
        tree.add_node(PathNode(tier, tier))
    tree.add_edge("a", "b")
    tree.add_edge("a", "c")
    world.dispatcher.add_tree(tree)
    return world


def two_sinks_split(seed=0, network=None):
    return _two_sinks(("a0", "b0", "c0"), seed, network)


def two_sinks_colocated(seed=0, network=None):
    return _two_sinks(("a0", "b0", "b0"), seed, network)


def two_tier_least_outstanding(seed=0, network=None):
    world = apps.two_tier(seed=seed, network=network)
    world.deployment.set_pool("memcached", 16, "least_outstanding")
    return world


#: Worlds beyond repro.apps that probe the adapter's refusals, with
#: their builder and load.
PROBE_WORLDS = {
    "two_sinks_split": (two_sinks_split, 1000.0),
    "two_sinks_colocated": (two_sinks_colocated, 1000.0),
    "two_tier_least_outstanding": (two_tier_least_outstanding, 2000.0),
}

#: Worlds the adapter refuses at build, with the refusal's wording.
REFUSED = {
    "load_balanced": "instances",
    "two_sinks_split": "sinks on machines",
    "two_tier_least_outstanding": "round_robin",
}


class TestRegistry:
    def test_fig14_supports_shards(self):
        assert registry.get("fig14").supports("shards")

    def test_adapter_ported_figures_support_shards(self):
        # fig5/fig12b run through the generic world adapter.
        assert registry.get("fig5").supports("shards")
        assert registry.get("fig12b").supports("shards")

    def test_unported_figures_do_not(self):
        assert not registry.get("fig8").supports("shards")

    def test_unsupported_experiment_rejects_shards(self):
        with pytest.raises(ReproError, match="--shards"):
            registry.get("fig8").run(shards=2)

    def test_shards_one_is_always_accepted(self):
        # shards=1 must not even consult the capability.
        spec = registry.ExperimentSpec(
            "toy", "none", "no shards kwarg", lambda: "ran"
        )
        assert not spec.supports("shards")
        assert spec.run(shards=1) == "ran"
        with pytest.raises(ReproError, match="--shards"):
            spec.run(shards=2)


class TestTailAtScaleRouting:
    def test_sharded_point_matches_vanilla(self):
        vanilla = measure_tail_at_scale(
            8, 0.1, qps=60.0, num_requests=30, seed=5,
            network=det_fabric(),
        )
        sharded = measure_tail_at_scale(
            8, 0.1, qps=60.0, num_requests=30, seed=5,
            shards=2, network=det_fabric(),
        )
        assert sharded.p50 == vanilla.p50
        assert sharded.p99 == vanilla.p99
        assert sharded.requests == vanilla.requests

    @pytest.mark.parametrize("knob", [
        {"trace_dir": "traces"},
        {"slo": "p99<5ms"},
    ])
    def test_instrumentation_knobs_blocked_when_sharded(self, knob):
        # Refused before anything runs, so no trace directory is made.
        with pytest.raises(ReproError, match="shards"):
            measure_tail_at_scale(
                4, 0.0, qps=60.0, num_requests=10,
                shards=2, network=det_fabric(), **knob
            )

    def test_audit_allowed_when_sharded(self):
        # The merged conservation audit lifted the old --audit block.
        point = measure_tail_at_scale(
            4, 0.0, qps=60.0, num_requests=10, seed=5,
            shards=2, network=det_fabric(), audit=True,
        )
        assert point.requests == 10


class TestTailAtScaleManifest:
    def test_sharded_sweep_manifest_names_critical_shard(self, tmp_path):
        # fig14 records the coordinator counters like the adapter
        # figures do, so the manifest summary names the critical shard.
        import json

        from repro.experiments.tail_at_scale import tail_at_scale_sweep
        from repro.telemetry import format_run_manifest

        run_dir = tmp_path / "run"
        points = tail_at_scale_sweep(
            cluster_sizes=(4,), slow_fractions=(0.0,), qps=60.0,
            num_requests=10, seed=5, shards=2, network=det_fabric(),
            run_dir=run_dir,
        )
        assert points[0].shard_sync["shards"] == 2
        manifest = json.loads((run_dir / "manifest.json").read_text())
        sync = manifest["shard_sync"]
        assert sync["shards"] == 2 and sync["points"] == 1
        assert sum(sync["straggler_rounds"].values()) == sync["rounds"]
        assert "critical shard" in format_run_manifest(manifest)


class TestMeasureAtLoad:
    def test_sharded_load_point_matches_vanilla(self):
        common = dict(
            qps=80.0, duration=0.4, warmup=0.1, seed=3,
            cluster_size=6, slow_fraction=0.0, network=det_fabric(),
        )
        vanilla = measure_at_load(build_fanout_cluster, **common)
        sharded = measure_at_load(
            build_fanout_cluster, shards=2, mode="inline", **common
        )
        assert sharded == vanilla

    @pytest.mark.parametrize("name", sorted(APP_LOADS) + sorted(PROBE_WORLDS))
    @pytest.mark.filterwarnings("ignore:only 2 placeable:RuntimeWarning")
    def test_every_app_builder_shards_or_refuses(self, name):
        # The adapter's own validation is the one gate on which worlds
        # shard: no builder opts in, and load_balanced's multi-instance
        # tier, sinks split across machines and a least_outstanding
        # pool are refused before any world runs. Two-machine worlds
        # fall back at 3 shards.
        if name in PROBE_WORLDS:
            build_world, load = PROBE_WORLDS[name]
        else:
            build_world, load = getattr(apps, name), APP_LOADS[name]

        def point(shards, **kwargs):
            return measure_at_load(
                build_world, load, duration=0.05, warmup=0.01,
                seed=11, shards=shards,
                network=NetworkFabric(propagation=Deterministic(50e-6)),
                **kwargs,
            )

        if name in REFUSED:
            with pytest.raises(ShardingError, match=REFUSED[name]):
                validate_world_shardable(build_world(seed=11))
            with pytest.raises(ShardingError, match=REFUSED[name]):
                point(2, mode="inline")
            return
        sharded = point(2, mode="inline")
        assert sharded.shard_sync["shards"] == 2
        assert sharded == point(3, mode="inline")
        # synthetic_graph breaks a same-instant queue tie in the
        # adapter's shard-count-invariant order, so it matches vanilla
        # in distribution only; every other world matches exactly.
        if name != "synthetic_graph":
            assert sharded == point(1)

    def test_shard_tuning_needs_shards(self):
        with pytest.raises(ReproError, match="shards"):
            measure_at_load(
                build_fanout_cluster, qps=10.0, shards=1,
                shard_restarts=5, cluster_size=4, slow_fraction=0.0,
            )


class TestCLI:
    def test_shards_rejected_for_unsupported_experiment(self, capsys):
        code = main(["experiments", "run", "fig8", "--shards", "2"])
        assert code == 2
        assert "--shards" in capsys.readouterr().err

    def test_shard_tuning_needs_shards(self, capsys):
        code = main([
            "experiments", "run", "fig14", "--shard-restarts", "5",
        ])
        assert code == 2
        assert "--shards" in capsys.readouterr().err

    def test_shard_tuning_rejected_for_unsupported_runner(self):
        spec = registry.ExperimentSpec(
            "toy", "none", "shards but no tuning",
            lambda shards=1: "ran",
        )
        assert spec.supports("shards")
        assert not spec.supports("shard_timeout")
        with pytest.raises(ReproError, match="supervisor knobs"):
            spec.run(shards=2, shard_timeout=1.0)
