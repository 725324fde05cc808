"""The horizontal autoscaler driving replica counts through the
control plane."""

import pytest

from repro.controlplane import HorizontalAutoscaler
from repro.errors import ConfigError
from repro.telemetry import MetricsRegistry, Scraper
from repro.workload import MMPPArrivals, OpenLoopClient, StepPattern

from .conftest import managed_world, sim  # noqa: F401


def hpa_world(sim, replicas=2, **kwargs):
    cluster, deployment, dispatcher, cp, factory = managed_world(
        sim, machines=8, replicas=replicas,
    )
    hpa = HorizontalAutoscaler(
        cp, "web",
        target_utilization=0.6,
        min_replicas=1, max_replicas=8,
        decision_interval=0.2,
        **kwargs,
    )
    return dispatcher, cp, hpa


class TestScaleUp:
    def test_overload_grows_the_tier_through_the_control_plane(self, sim):
        # 2 one-core replicas at 1ms/request cannot hold 1500 QPS at
        # 60% utilisation: the HPA must request more replicas.
        dispatcher, cp, hpa = hpa_world(sim, replicas=2)
        cp.start(stop_at=3.0)
        hpa.start(stop_at=3.0)
        client = OpenLoopClient(sim, dispatcher, 1500.0, stop_at=3.0)
        client.start()
        sim.run(until=3.5)
        assert hpa.scale_ups >= 1
        assert cp.desired("web") >= 3
        assert len(cp.ready_replicas("web")) >= 3
        # Growth went through placement, not direct deployment edits.
        assert cp.placements >= cp.desired("web")
        place_events = [e for e in cp.events if e.name == "place"]
        assert len(place_events) == cp.placements

    def test_scale_down_when_idle_drains_gracefully(self, sim):
        pattern = StepPattern([(0.0, 1500.0), (1.5, 50.0)])
        dispatcher, cp, hpa = hpa_world(sim, replicas=4)
        cp.start(stop_at=5.0)
        hpa.start(stop_at=5.0)
        client = OpenLoopClient(sim, dispatcher, pattern, stop_at=5.0)
        client.start()
        sim.run(until=5.5)
        assert hpa.scale_downs >= 1
        assert cp.desired("web") < 4
        # Scale-down retired replicas only after they went idle.
        assert cp.retirements >= 1
        assert client.requests_ok == client.requests_sent


class TestSLOOverride:
    def test_breach_forces_scale_up_at_low_utilization(self, sim):
        dispatcher, cp, hpa = hpa_world(sim, replicas=2)

        class BreachedState:
            breached = True

        class StubMonitor:
            states = [BreachedState()]

        hpa.slo_monitor = StubMonitor()
        cp.start(stop_at=1.0)
        hpa.start(stop_at=1.0)
        client = OpenLoopClient(sim, dispatcher, 100.0, stop_at=1.0)
        client.start()
        sim.run(until=1.0)
        assert hpa.slo_scale_ups >= 1
        assert cp.desired("web") > 2


class TestDeadband:
    def test_no_flapping_inside_tolerance(self, sim):
        # ~0.6 utilisation on 2 one-core 1ms replicas = 1200 QPS.
        # Window-to-window utilisation wanders with queue busy periods,
        # but stays well inside a 30% band — the replica count must
        # hold perfectly still.
        dispatcher, cp, hpa = hpa_world(sim, replicas=2, tolerance=0.3)
        cp.start(stop_at=3.0)
        hpa.start(stop_at=3.0)
        client = OpenLoopClient(sim, dispatcher, 1200.0, stop_at=3.0)
        client.start()
        sim.run(until=3.0)
        assert hpa.decisions >= 10
        assert hpa.scale_ups + hpa.scale_downs == 0
        assert cp.desired("web") == 2

    def test_validation(self, sim):
        _, cp, _ = hpa_world(sim)
        with pytest.raises(ConfigError):
            HorizontalAutoscaler(cp, "web", target_utilization=0.0)
        with pytest.raises(ConfigError):
            HorizontalAutoscaler(cp, "web", min_replicas=3, max_replicas=2)
        with pytest.raises(ConfigError):
            HorizontalAutoscaler(cp, "web", decision_interval=0)


def scale_targets(cp, since=0.0, until=float("inf")):
    return [
        e.attrs["to_replicas"]
        for e in cp.events
        if e.name == "scale" and since <= e.t < until
    ]


class TestCoreSeconds:
    def test_static_fleet_is_replicas_times_duration(self, sim):
        _, _, dispatcher, cp, _ = managed_world(sim, replicas=3)
        cp.start(stop_at=2.0)
        OpenLoopClient(sim, dispatcher, 300.0, stop_at=2.0).start()
        sim.run(until=2.0)
        assert cp.core_seconds("web") == 3 * 2.0

    def test_scale_up_counts_the_cold_start(self, sim):
        _, _, _, cp, _ = managed_world(sim, replicas=2, cold_start=0.1)
        cp.start(stop_at=2.0)
        sim.schedule(0.5, cp.set_replicas, "web", 3)
        sim.run(until=2.0)
        placed = [e.t for e in cp.events if e.name == "place"][-1]
        ready = [e.t for e in cp.events if e.name == "ready"][-1]
        assert ready == pytest.approx(placed + 0.1)
        # The new replica's cores are held from placement, not from
        # readiness: the cold start is provisioned cost.
        assert cp.core_seconds("web") == pytest.approx(
            2 * 2.0 + (2.0 - placed), abs=1e-12
        )

    def test_scale_down_counts_until_retirement(self, sim):
        _, _, _, cp, _ = managed_world(sim, replicas=3)
        cp.start(stop_at=2.0)
        sim.schedule(0.5, cp.set_replicas, "web", 1)
        sim.run(until=2.0)
        retired = [e.t for e in cp.events if e.name == "retire"]
        assert len(retired) == 2
        assert cp.core_seconds("web") == pytest.approx(
            2.0 + sum(retired), abs=1e-12
        )

    def test_hpa_saves_core_seconds_vs_static_at_light_load(self, sim):
        dispatcher, cp, hpa = hpa_world(sim, replicas=4)
        cp.start(stop_at=2.0)
        hpa.start(stop_at=2.0)
        OpenLoopClient(sim, dispatcher, 300.0, stop_at=2.0).start()
        sim.run(until=2.0)
        assert hpa.scale_downs >= 1
        static_core_seconds = 4 * 1 * 2.0  # 4 replicas x 1 core x 2 s
        assert cp.core_seconds("web") < 0.6 * static_core_seconds


class TestTracking:
    def test_tracks_step_burst_up_and_back_down(self, sim):
        pattern = StepPattern([(0.0, 200.0), (1.0, 2500.0), (2.0, 200.0)])
        dispatcher, cp, hpa = hpa_world(sim, replicas=1)
        cp.start(stop_at=3.0)
        hpa.start(stop_at=3.0)
        client = OpenLoopClient(sim, dispatcher, pattern, stop_at=3.0)
        client.start()
        sim.run(until=3.0)
        assert max(scale_targets(cp, 1.0, 2.0)) >= 3
        assert cp.desired("web") <= 2
        assert len(cp.ready_replicas("web")) <= 2


class TestGracefulDrain:
    def test_scaled_down_replica_takes_no_new_work_and_finishes_queue(
        self, sim
    ):
        _, _, dispatcher, cp, _ = managed_world(sim, replicas=3)
        replicas = cp.managed_replicas("web")
        accepted_at_drain = {}
        for inst in replicas:
            def drain(inst=inst, original=inst.start_draining):
                accepted_at_drain[inst.name] = inst.jobs_accepted
                original()

            inst.start_draining = drain
        cp.start(stop_at=2.0)
        client = OpenLoopClient(sim, dispatcher, 600.0, stop_at=1.0)
        client.start()
        sim.schedule(0.3, cp.set_replicas, "web", 1)
        sim.run(until=2.0)
        assert len(accepted_at_drain) == 2
        for inst in replicas:
            if inst.name in accepted_at_drain:
                assert inst.jobs_accepted == accepted_at_drain[inst.name]
                assert inst.jobs_completed == inst.jobs_accepted
        assert cp.retirements == 2
        assert client.requests_ok == client.requests_sent


class TestInvariants:
    def test_scale_targets_and_utilization_in_range(self, sim):
        _, _, dispatcher, cp, _ = managed_world(
            sim, machines=8, replicas=2, mean_service=5e-4,
        )
        cp.metrics = MetricsRegistry()
        hpa = HorizontalAutoscaler(
            cp, "web", min_replicas=1, max_replicas=4,
            decision_interval=0.05,
        )
        scraper = Scraper(
            sim, interval=0.05, registry=cp.metrics, stop_at=3.0
        )
        client = OpenLoopClient(
            sim, dispatcher,
            arrivals=MMPPArrivals(low_qps=100, high_qps=6000, mean_dwell=0.3),
            stop_at=3.0,
        )
        cp.start(stop_at=3.0)
        hpa.start(stop_at=3.0)
        scraper.start()
        client.start()
        sim.run(until=3.0)
        targets = scale_targets(cp)
        assert targets
        assert all(1 <= t <= 4 for t in targets)
        utils = scraper.series[
            'gauge/hpa_observed_utilization{service="web"}'
        ].values
        assert len(utils) > 0
        assert (utils >= 0).all()
        assert (utils <= 1.0 + 1e-9).all()
