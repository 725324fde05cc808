"""Tests for machines, allocation, and clusters."""

import numpy as np
import pytest

from repro.errors import ResourceError
from repro.hardware import Cluster, DvfsLadder, GHZ, Machine, NetworkFabric
from repro.distributions import Deterministic, Exponential


class TestMachineAllocation:
    def test_dedicated_allocation(self):
        m = Machine("node0", 4)
        nginx = m.allocate("nginx", 2)
        mc = m.allocate("memcached", 1)
        assert len(nginx) == 2 and len(mc) == 1
        assert m.unallocated_cores == 1
        ids = {c.core_id for c in nginx.cores} | {c.core_id for c in mc.cores}
        assert len(ids) == 3  # no core shared

    def test_overcommit_rejected(self):
        m = Machine("node0", 2)
        m.allocate("a", 2)
        with pytest.raises(ResourceError):
            m.allocate("b", 1)

    def test_duplicate_owner_rejected(self):
        m = Machine("node0", 4)
        m.allocate("a", 1)
        with pytest.raises(ResourceError):
            m.allocate("a", 1)

    def test_allocation_lookup(self):
        m = Machine("node0", 4)
        cores = m.allocate("a", 2)
        assert m.allocation("a") is cores
        with pytest.raises(ResourceError):
            m.allocation("nope")

    def test_table2_machine(self):
        m = Machine.table2("node0")
        assert m.num_cores == 40
        assert m.ladder.max == pytest.approx(2.6 * GHZ)

    def test_zero_core_machine_rejected(self):
        with pytest.raises(ResourceError):
            Machine("bad", 0)

    def test_machine_set_frequency(self):
        m = Machine("node0", 2, DvfsLadder([1.2 * GHZ, 2.6 * GHZ]))
        assert m.set_frequency(1.2 * GHZ) == 1.2 * GHZ
        assert all(c.frequency == 1.2 * GHZ for c in m.cores)


class TestCluster:
    def test_homogeneous_builder(self):
        cluster = Cluster.homogeneous(3, 8)
        assert len(cluster) == 3
        assert cluster.total_cores == 24
        assert cluster.machine_names == ["node0", "node1", "node2"]

    def test_duplicate_machine_rejected(self):
        cluster = Cluster()
        cluster.add_machine(Machine("a", 1))
        with pytest.raises(ResourceError):
            cluster.add_machine(Machine("a", 2))

    def test_unknown_machine_lookup(self):
        with pytest.raises(ResourceError):
            Cluster().machine("ghost")

    def test_contains_and_iter(self):
        cluster = Cluster.homogeneous(2, 1)
        assert "node0" in cluster
        assert sorted(m.name for m in cluster) == ["node0", "node1"]

    def test_empty_cluster_count_rejected(self):
        with pytest.raises(ResourceError):
            Cluster.homogeneous(0, 4)


class TestNetworkFabric:
    def test_same_machine_uses_loopback(self):
        fabric = NetworkFabric(
            propagation=Deterministic(100e-6), loopback=Deterministic(1e-6)
        )
        delay = fabric.delay_sampler(np.random.default_rng(0)).delay
        assert delay("a", "a", 1000) == pytest.approx(1e-6)

    def test_cross_machine_adds_serialisation(self):
        fabric = NetworkFabric(
            propagation=Deterministic(100e-6),
            loopback=Deterministic(1e-6),
            bandwidth_bytes_per_s=1e6,
        )
        delay = fabric.delay_sampler(np.random.default_rng(0)).delay
        # 1000 bytes at 1 MB/s = 1 ms on the wire.
        assert delay("a", "b", 1000) == pytest.approx(100e-6 + 1e-3)

    def test_degraded_link_multiplies_both_directions(self):
        fabric = NetworkFabric(
            propagation=Deterministic(100e-6),
            loopback=Deterministic(1e-6),
            bandwidth_bytes_per_s=1e6,
        )
        delay = fabric.delay_sampler(np.random.default_rng(0)).delay
        fabric.degrade_link("a", "b", 3.0)
        assert delay("a", "b", 1000) == pytest.approx(3 * (100e-6 + 1e-3))
        assert delay("b", "a", 0) == pytest.approx(3 * 100e-6)
        assert delay("a", "c", 0) == pytest.approx(100e-6)
        fabric.restore_link("a", "b")
        assert delay("a", "b", 0) == pytest.approx(100e-6)

    def test_jitter_draws_come_from_the_sampler_stream(self):
        # Cross-machine hops draw propagation jitter, same-machine hops
        # loopback jitter, each through its own block buffer.
        fabric = NetworkFabric(bandwidth_bytes_per_s=1e6)
        delay = fabric.delay_sampler(np.random.default_rng(5), block=4).delay
        rng = np.random.default_rng(5)
        propagation = fabric.propagation.sample_many(rng, 4).tolist()
        loopback = fabric.loopback.sample_many(rng, 4).tolist()
        assert delay("a", "b", 500) == propagation[0] + 500 / 1e6
        assert delay("a", "a", 500) == loopback[0]
        assert delay("b", "a", 0) == propagation[1]

    def test_stochastic_loopback_does_not_depend_on_block(self):
        # Propagation and loopback buffer separate generators, so the
        # interleaving of cross- and same-machine hops cannot shift
        # either sequence.
        fabric = NetworkFabric(
            propagation=Exponential(20e-6), loopback=Exponential(5e-6)
        )

        def delays(block):
            delay = fabric.delay_sampler(
                np.random.default_rng(5), block,
                loopback_rng=np.random.default_rng(6),
            ).delay
            return [delay("a", dst, 100) for dst in ("b", "a") * 9]

        assert delays(4) == delays(8)

    def test_stochastic_loopback_needs_its_own_generator(self):
        fabric = NetworkFabric(loopback=Exponential(5e-6))
        with pytest.raises(ResourceError, match="loopback_rng"):
            fabric.delay_sampler(np.random.default_rng(0))

    def test_negative_size_rejected(self):
        sampler = NetworkFabric().delay_sampler(np.random.default_rng(0))
        with pytest.raises(ResourceError):
            sampler.delay("a", "b", -1)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ResourceError):
            NetworkFabric(bandwidth_bytes_per_s=0)
