"""Tests for the closed-loop client extension."""

import pytest

from repro.distributions import Deterministic
from repro.errors import WorkloadError
from repro.service.job import OUTCOME_FAILED, OUTCOME_OK
from repro.topology import PathNode, PathTree
from repro.workload import ClosedLoopClient

from ..topology.conftest import build_instance, build_world, network, sim  # noqa: F401


def make_world(sim, network, service_time=1e-3, cores=1):
    cluster, deployment, dispatcher = build_world(sim, network)
    deployment.add_instance(
        build_instance(
            sim, cluster, "web0", "node0",
            service_time=service_time, cores=cores, tier="web",
        )
    )
    dispatcher.add_tree(PathTree().chain(PathNode("web", "web")))
    return dispatcher


class TestClosedLoop:
    def test_outstanding_never_exceeds_concurrency(self, sim, network):
        dispatcher = make_world(sim, network)
        client = ClosedLoopClient(sim, dispatcher, concurrency=4, max_requests=40)
        peak = []

        original = client._issue

        def tracking_issue():
            original()
            peak.append(client.outstanding)

        client._issue = tracking_issue
        client.start()
        sim.run()
        assert max(peak) <= 4
        assert client.requests_completed == 40

    def test_throughput_bounded_by_little_law(self, sim, network):
        # 1 user on a 1ms server: throughput can never exceed ~1/RTT.
        dispatcher = make_world(sim, network, service_time=1e-3)
        client = ClosedLoopClient(sim, dispatcher, concurrency=1, max_requests=100)
        client.start()
        sim.run()
        # Each request takes >= service time, strictly sequential.
        assert sim.now >= 100 * 1e-3

    def test_think_time_slows_issue_rate(self, sim, network):
        dispatcher = make_world(sim, network, service_time=1e-4)
        client = ClosedLoopClient(
            sim, dispatcher, concurrency=1, max_requests=10,
            think_time=Deterministic(10e-3),
        )
        client.start()
        sim.run()
        assert sim.now >= 9 * 10e-3

    def test_closed_loop_self_limits_under_overload(self, sim, network):
        # Unlike the open-loop client, a saturated server throttles the
        # closed-loop client instead of building an unbounded backlog.
        dispatcher = make_world(sim, network, service_time=10e-3)
        client = ClosedLoopClient(
            sim, dispatcher, concurrency=2, stop_at=0.5
        )
        client.start()
        sim.run()
        assert client.outstanding == 0
        # ~0.5s / 10ms * min(2 users, 1 core) ~ 50 requests.
        assert client.requests_completed <= 60

    def test_failed_requests_are_tallied_not_timed(self, sim, network):
        # Every request fails fast on a crashed tier: each resolution is
        # counted under its outcome, none is a latency sample.
        cluster, deployment, dispatcher = build_world(sim, network)
        web = build_instance(sim, cluster, "web0", "node0", tier="web")
        deployment.add_instance(web)
        dispatcher.add_tree(PathTree().chain(PathNode("web", "web")))
        web.crash()
        client = ClosedLoopClient(sim, dispatcher, concurrency=2, max_requests=10)
        client.start()
        sim.run()
        assert dispatcher.requests_failed == 10
        assert client.requests_completed == 10
        assert client.outcomes[OUTCOME_FAILED] == 10
        assert client.outcomes[OUTCOME_OK] == 0
        assert len(client.latencies) == 0

    def test_ok_requests_are_timed(self, sim, network):
        dispatcher = make_world(sim, network)
        client = ClosedLoopClient(sim, dispatcher, concurrency=2, max_requests=10)
        client.start()
        sim.run()
        assert client.outcomes[OUTCOME_OK] == 10
        assert len(client.latencies) == 10

    def test_validation(self, sim, network):
        dispatcher = make_world(sim, network)
        with pytest.raises(WorkloadError):
            ClosedLoopClient(sim, dispatcher, concurrency=0, max_requests=1)
        with pytest.raises(WorkloadError):
            ClosedLoopClient(sim, dispatcher, concurrency=1)
        client = ClosedLoopClient(sim, dispatcher, concurrency=1, max_requests=1)
        client.start()
        with pytest.raises(WorkloadError):
            client.start()
