"""Controller invariants: whatever the traffic does, actuators stay
within their physical ranges."""

import numpy as np
import pytest

from repro.hardware import GHZ
from repro.power import PowerManager
from repro.telemetry import WindowedLatency
from repro.topology import PathNode, PathTree
from repro.workload import MMPPArrivals, OpenLoopClient

from ..topology.conftest import build_instance, build_world, network, sim  # noqa: F401


class TestPowerManagerInvariants:
    def test_frequencies_always_on_ladder(self, sim, network):
        cluster, deployment, dispatcher = build_world(sim, network)
        svc = build_instance(
            sim, cluster, "web0", "node0", service_time=3e-4, tier="web"
        )
        deployment.add_instance(svc)
        dispatcher.add_tree(PathTree().chain(PathNode("web", "web")))
        window = WindowedLatency(0.05)
        # Bursty arrivals to force both speed-ups and slow-downs.
        client = OpenLoopClient(
            sim, dispatcher,
            arrivals=MMPPArrivals(low_qps=200, high_qps=3000, mean_dwell=0.2),
            stop_at=3.0,
            on_complete=lambda r: window.record(r.completed_at, r.latency),
        )
        manager = PowerManager(
            sim, {"web": [svc]}, window, qos_target=2e-3,
            decision_interval=0.05, min_samples=5,
        )
        client.start()
        manager.start()
        sim.run(until=3.0)
        ladder = svc.cores.cores[0].ladder
        freqs = manager.frequency_series["web"].values
        assert manager.decisions > 30
        assert (freqs >= ladder.min - 1e-6).all()
        assert (freqs <= ladder.max + 1e-6).all()
        for f in np.unique(freqs):
            assert float(f) in ladder

    def test_decision_count_matches_series_lengths(self, sim, network):
        cluster, deployment, dispatcher = build_world(sim, network)
        svc = build_instance(sim, cluster, "web0", "node0", tier="web")
        deployment.add_instance(svc)
        dispatcher.add_tree(PathTree().chain(PathNode("web", "web")))
        window = WindowedLatency(0.05)
        client = OpenLoopClient(
            sim, dispatcher, arrivals=500, stop_at=1.0,
            on_complete=lambda r: window.record(r.completed_at, r.latency),
        )
        manager = PowerManager(
            sim, {"web": [svc]}, window, qos_target=5e-3,
            decision_interval=0.1, min_samples=5,
        )
        client.start()
        manager.start()
        sim.run(until=1.0)
        assert len(manager.p99_series) == manager.decisions
        assert manager.violations <= manager.decisions
