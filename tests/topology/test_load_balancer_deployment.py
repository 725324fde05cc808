"""Tests for load balancers and the deployment registry."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology import (
    Deployment,
    LeastOutstanding,
    RandomChoice,
    RoundRobin,
    make_load_balancer,
)

from .conftest import build_instance, build_world


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class _FakeInstance:
    """Instance stand-in carrying what the balancers read."""

    def __init__(self, name, outstanding=0):
        self.name = name
        self.tier = "svc"
        self.healthy = True
        self.pending_dispatch = outstanding


class TestPolicies:
    def test_round_robin_rotates(self, rng):
        lb = RoundRobin()
        instances = [_FakeInstance(f"i{k}") for k in range(3)]
        picks = [lb.pick(instances, rng).name for _ in range(6)]
        assert picks == ["i0", "i1", "i2", "i0", "i1", "i2"]

    def test_random_covers_all(self, rng):
        lb = RandomChoice()
        instances = [_FakeInstance(f"i{k}") for k in range(3)]
        picks = {lb.pick(instances, rng).name for _ in range(200)}
        assert picks == {"i0", "i1", "i2"}

    def test_least_outstanding_prefers_idle(self, rng):
        lb = LeastOutstanding()
        busy = _FakeInstance("busy", outstanding=5)
        idle = _FakeInstance("idle", outstanding=0)
        assert lb.pick([busy, idle], rng) is idle

    def test_empty_instances_rejected(self, rng):
        with pytest.raises(TopologyError):
            RoundRobin().pick([], rng)

    def test_factory(self):
        assert isinstance(make_load_balancer("round_robin"), RoundRobin)
        with pytest.raises(TopologyError):
            make_load_balancer("astrology")


class TestDeployment:
    def test_register_and_lookup(self, sim, network):
        cluster, deployment, _ = build_world(sim, network)
        a = build_instance(sim, cluster, "web0", "node0", tier="web")
        b = build_instance(sim, cluster, "web1", "node1", tier="web")
        deployment.add_instance(a)
        deployment.add_instance(b)
        assert deployment.instances("web") == [a, b]
        assert deployment.services == ["web"]
        assert set(deployment.all_instances) == {a, b}

    def test_duplicate_instance_rejected(self, sim, network):
        cluster, deployment, _ = build_world(sim, network)
        a = build_instance(sim, cluster, "web0", "node0", tier="web")
        deployment.add_instance(a)
        with pytest.raises(TopologyError):
            deployment.add_instance(a)

    def test_unknown_service_rejected(self):
        with pytest.raises(TopologyError):
            Deployment().instances("ghost")

    def test_default_balancer_is_round_robin(self):
        deployment = Deployment()
        assert isinstance(deployment.balancer("web"), RoundRobin)

    def test_set_balancer(self):
        deployment = Deployment()
        deployment.set_balancer("web", "least_outstanding")
        assert isinstance(deployment.balancer("web"), LeastOutstanding)

    def test_pools_are_cached_per_edge(self, sim, network):
        cluster, deployment, _ = build_world(sim, network)
        a = build_instance(sim, cluster, "web0", "node0", tier="web")
        deployment.add_instance(a)
        deployment.set_pool("web", 4)
        p1 = deployment.pool_between("client", a)
        p2 = deployment.pool_between("client", a)
        assert p1 is p2
        assert len(p1) == 4

    def test_pool_size_validation(self):
        with pytest.raises(TopologyError):
            Deployment().set_pool("web", 0)

    def test_netproc_registration(self, sim, network):
        cluster, deployment, _ = build_world(sim, network)
        np_inst = build_instance(sim, cluster, "netproc0", "node0", tier="netproc")
        deployment.set_netproc("node0", np_inst)
        assert deployment.netproc("node0") is np_inst
        assert deployment.netproc("node1") is None
        with pytest.raises(TopologyError):
            deployment.set_netproc("node0", np_inst)
