"""--shards plumbing: experiment registry, load sweeps, tail@scale
routing, and the CLI all thread the shard count through — and refuse
loudly where the sharded core cannot honour a knob."""

import pytest

from repro.__main__ import main
from repro.distributions import Deterministic
from repro.errors import ReproError
from repro.experiments import registry
from repro.experiments.loadsweep import measure_at_load
from repro.experiments.tail_at_scale import (
    build_fanout_cluster,
    measure_tail_at_scale,
)
from repro.hardware import NetworkFabric


def det_fabric():
    return NetworkFabric(propagation=Deterministic(20e-6))


class TestRegistry:
    def test_fig14_supports_shards(self):
        assert registry.get("fig14").supports("shards")

    def test_adapter_ported_figures_support_shards(self):
        # fig5/fig12b run through the generic world adapter since the
        # sharded_runner hooks landed on their builders.
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
        {"trace": True},
        {"slo": "p99<5ms"},
    ])
    def test_instrumentation_knobs_blocked_when_sharded(self, knob):
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

    def test_builder_without_runner_rejected(self):
        def bare_builder(seed=0):  # pragma: no cover - never called
            raise AssertionError

        with pytest.raises(ReproError, match="no sharded runner"):
            measure_at_load(bare_builder, qps=10.0, shards=2)

    def test_blocked_knobs_listed(self):
        def toy_builder(seed=0):  # pragma: no cover - never called
            raise AssertionError

        def toy_runner(qps, duration, warmup, seed, shards,
                       journal_path=None):  # pragma: no cover
            raise AssertionError

        # The runner's signature is its capability set: every option it
        # lacks is named in one refusal, before anything runs.
        toy_builder.sharded_runner = lambda: toy_runner
        with pytest.raises(ReproError, match="slo, scrape_interval"):
            measure_at_load(
                toy_builder, qps=10.0, shards=2, slo="p99<5ms",
                scrape_interval=0.01,
            )

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
