"""End-to-end dispatcher behaviour: traversal, fan-in, affinity,
blocking, netproc routing, tree selection."""

import pytest

from repro.errors import TopologyError
from repro.resilience import ResiliencePolicy
from repro.service import Request
from repro.topology import NodeOp, PathNode, PathTree

from .conftest import LOOPBACK, PROPAGATION, build_instance, build_world


def submit(dispatcher, sim, n=1, request_type="default", size=0.0, spacing=0.0):
    done = []
    for i in range(n):
        req = Request(
            created_at=sim.now + i * spacing,
            request_type=request_type,
            size_bytes=size,
        )
        sim.schedule_at(req.created_at, dispatcher.submit, req, done.append)
    return done


class TestSingleNode:
    def test_request_completes_with_network_hops(self, sim, network):
        cluster, deployment, dispatcher = build_world(sim, network)
        deployment.add_instance(
            build_instance(sim, cluster, "web0", "node0", service_time=1e-3, tier="web")
        )
        dispatcher.add_tree(PathTree().chain(PathNode("web", "web")))
        done = submit(dispatcher, sim)
        sim.run()
        assert len(done) == 1
        # client->node0 hop + 1ms service + node0->client hop.
        assert done[0].latency == pytest.approx(2 * PROPAGATION + 1e-3)

    def test_dispatcher_counters(self, sim, network):
        cluster, deployment, dispatcher = build_world(sim, network)
        deployment.add_instance(
            build_instance(sim, cluster, "web0", "node0", tier="web")
        )
        dispatcher.add_tree(PathTree().chain(PathNode("web", "web")))
        submit(dispatcher, sim, n=3)
        sim.run()
        assert dispatcher.requests_submitted == 3
        assert dispatcher.requests_completed == 3


class TestChain:
    def test_two_tier_latency_adds_up(self, sim, network):
        cluster, deployment, dispatcher = build_world(sim, network)
        deployment.add_instance(
            build_instance(sim, cluster, "web0", "node0", service_time=1e-3, tier="web")
        )
        deployment.add_instance(
            build_instance(sim, cluster, "db0", "node1", service_time=2e-3, tier="db")
        )
        dispatcher.add_tree(
            PathTree().chain(PathNode("web", "web"), PathNode("db", "db"))
        )
        done = submit(dispatcher, sim)
        sim.run()
        # hops: client->web, web->db, db->client; services: 1ms + 2ms.
        assert done[0].latency == pytest.approx(3 * PROPAGATION + 3e-3)

    def test_colocated_tiers_use_loopback(self, sim, network):
        cluster, deployment, dispatcher = build_world(sim, network)
        deployment.add_instance(
            build_instance(sim, cluster, "web0", "node0", service_time=1e-3, tier="web")
        )
        deployment.add_instance(
            build_instance(sim, cluster, "db0", "node0", service_time=2e-3, tier="db")
        )
        dispatcher.add_tree(
            PathTree().chain(PathNode("web", "web"), PathNode("db", "db"))
        )
        done = submit(dispatcher, sim)
        sim.run()
        assert done[0].latency == pytest.approx(2 * PROPAGATION + LOOPBACK + 3e-3)


class TestFanoutFanIn:
    def build_fanout(self, sim, network, leaves=3, leaf_times=None):
        cluster, deployment, dispatcher = build_world(sim, network, machines=4)
        deployment.add_instance(
            build_instance(sim, cluster, "proxy0", "node0", service_time=1e-4, tier="proxy")
        )
        leaf_times = leaf_times or [1e-3] * leaves
        for i in range(leaves):
            deployment.add_instance(
                build_instance(
                    sim, cluster, f"leaf{i}", f"node{1 + i % 3}",
                    service_time=leaf_times[i], tier=f"leaftier{i}",
                )
            )
        tree = PathTree()
        tree.add_node(PathNode("proxy", "proxy"))
        for i in range(leaves):
            tree.add_node(PathNode(f"leaf{i}", f"leaftier{i}"))
            tree.add_edge("proxy", f"leaf{i}")
        tree.add_node(PathNode("join", "proxy", same_instance_as="proxy"))
        for i in range(leaves):
            tree.add_edge(f"leaf{i}", "join")
        dispatcher.add_tree(tree)
        return cluster, deployment, dispatcher

    def test_join_waits_for_slowest_leaf(self, sim, network):
        _, _, dispatcher = self.build_fanout(
            sim, network, leaves=3, leaf_times=[1e-3, 5e-3, 2e-3]
        )
        done = submit(dispatcher, sim)
        sim.run()
        # Slowest leaf (5ms) dominates; join runs on the proxy (1e-4).
        expected = (
            PROPAGATION          # client -> proxy
            + 1e-4               # proxy
            + PROPAGATION        # proxy -> slowest leaf
            + 5e-3               # slowest leaf
            + PROPAGATION        # leaf -> proxy (join)
            + 1e-4               # join processing
            + PROPAGATION        # proxy -> client
        )
        assert done[0].latency == pytest.approx(expected)

    def test_all_leaves_receive_a_copy(self, sim, network):
        _, deployment, dispatcher = self.build_fanout(sim, network, leaves=3)
        submit(dispatcher, sim, n=2)
        sim.run()
        for i in range(3):
            leaf = deployment.instances(f"leaftier{i}")[0]
            assert leaf.jobs_completed == 2

    def test_join_runs_once_per_request(self, sim, network):
        _, deployment, dispatcher = self.build_fanout(sim, network, leaves=3)
        submit(dispatcher, sim, n=1)
        sim.run()
        proxy = deployment.instances("proxy")[0]
        # proxy node + join node = 2 jobs on the proxy instance.
        assert proxy.jobs_completed == 2


class TestAffinity:
    def test_same_instance_as_reuses_instance(self, sim, network):
        cluster, deployment, dispatcher = build_world(sim, network)
        a = build_instance(sim, cluster, "web0", "node0", tier="web")
        b = build_instance(sim, cluster, "web1", "node1", tier="web")
        deployment.add_instance(a)
        deployment.add_instance(b)
        tree = PathTree().chain(
            PathNode("first", "web"),
            PathNode("again", "web", same_instance_as="first"),
        )
        dispatcher.add_tree(tree)
        submit(dispatcher, sim, n=4)
        sim.run()
        # Round-robin spreads requests 2/2, and each revisit lands on the
        # same instance: accepted counts must be even per instance.
        assert a.jobs_completed == 4
        assert b.jobs_completed == 4

    def test_unvisited_affinity_rejected(self, sim, network):
        cluster, deployment, dispatcher = build_world(sim, network)
        deployment.add_instance(build_instance(sim, cluster, "web0", "node0", tier="web"))
        tree = PathTree()
        tree.add_node(PathNode("root", "web", same_instance_as="root"))
        with pytest.raises(TopologyError, match="not an ancestor"):
            dispatcher.add_tree(tree)


class TestBlockingOps:
    def build_blocking_world(self, sim, network, pool_size=1):
        """Single-tier http1.1-style service: node blocks its incoming
        connection on enter, unblocks on leave."""
        cluster, deployment, dispatcher = build_world(sim, network)
        deployment.add_instance(
            build_instance(sim, cluster, "web0", "node0", service_time=1e-3, tier="web")
        )
        deployment.set_pool("web", pool_size)
        tree = PathTree().chain(
            PathNode(
                "web", "web",
                on_enter=NodeOp.block(),
                on_leave=NodeOp.unblock(),
            )
        )
        dispatcher.add_tree(tree)
        return deployment, dispatcher

    def test_one_connection_serialises_requests(self, sim, network):
        _, dispatcher = self.build_blocking_world(sim, network, pool_size=1)
        done = submit(dispatcher, sim, n=2)
        sim.run()
        latencies = sorted(r.latency for r in done)
        base = 2 * PROPAGATION + 1e-3
        assert latencies[0] == pytest.approx(base)
        # Request 2 sat blocked until request 1 finished processing (the
        # server resumes reading once it has written the response), so it
        # pays request 1's full service time on top of its own.
        assert latencies[1] == pytest.approx(base + 1e-3)

    def test_two_connections_run_in_parallel(self, sim, network):
        _, dispatcher = self.build_blocking_world(sim, network, pool_size=2)
        done = submit(dispatcher, sim, n=2)
        sim.run()
        # web0 has 1 core: second request queues for CPU but not for the
        # connection, so it finishes ~1ms (one service time) later.
        latencies = sorted(r.latency for r in done)
        assert latencies[1] == pytest.approx(latencies[0] + 1e-3)


    @pytest.mark.parametrize("blocking", [True, False])
    def test_block_held_across_a_hop(self, sim, network, blocking):
        # web blocks its incoming connection; the response node, back on
        # the same instance two hops later, unblocks it by name.
        cluster, deployment, dispatcher = build_world(sim, network)
        deployment.add_instance(build_instance(
            sim, cluster, "web0", "node0", service_time=1e-3, cores=2,
            tier="web",
        ))
        deployment.add_instance(build_instance(
            sim, cluster, "db0", "node1", service_time=2e-3, cores=2,
            tier="db",
        ))
        deployment.set_pool("web", 1)
        dispatcher.add_tree(PathTree().chain(
            PathNode("web", "web",
                     on_enter=NodeOp.block() if blocking else None),
            PathNode("db", "db"),
            PathNode("web_resp", "web", same_instance_as="web",
                     on_leave=NodeOp.unblock("web") if blocking else None),
        ))
        done = submit(dispatcher, sim, n=2)
        sim.run()
        # Four 10us hops and 4ms of service. With the block, the second
        # request, already at web0, waits there until the first one's
        # web_resp leaves at 4.03ms, then takes its own 4.03ms to finish.
        expected = [4.04e-3, 8.06e-3] if blocking else [4.04e-3, 4.04e-3]
        assert sorted(r.latency for r in done) == pytest.approx(expected)


class TestNetprocRouting:
    def test_cross_machine_messages_traverse_netproc(self, sim, network):
        cluster, deployment, dispatcher = build_world(sim, network)
        deployment.add_instance(
            build_instance(sim, cluster, "web0", "node0", service_time=1e-3, tier="web")
        )
        irq = build_instance(
            sim, cluster, "netproc0", "node0", service_time=5e-6, tier="netproc"
        )
        deployment.set_netproc("node0", irq)
        dispatcher.add_tree(PathTree().chain(PathNode("web", "web")))
        done = submit(dispatcher, sim)
        sim.run()
        # rx at node0 and tx back to the client: two netproc jobs.
        assert irq.jobs_completed == 2
        assert done[0].latency == pytest.approx(2 * PROPAGATION + 1e-3 + 2 * 5e-6)

    def test_loopback_bypasses_netproc(self, sim, network):
        cluster, deployment, dispatcher = build_world(sim, network)
        web = build_instance(sim, cluster, "web0", "node0", service_time=1e-3, tier="web")
        db = build_instance(sim, cluster, "db0", "node0", service_time=1e-3, tier="db")
        deployment.add_instance(web)
        deployment.add_instance(db)
        irq = build_instance(
            sim, cluster, "netproc0", "node0", service_time=5e-6, tier="netproc"
        )
        deployment.set_netproc("node0", irq)
        dispatcher.add_tree(
            PathTree().chain(PathNode("web", "web"), PathNode("db", "db"))
        )
        submit(dispatcher, sim)
        sim.run()
        # Only the client-facing hops cross machines: rx + tx = 2 jobs;
        # the web->db hop is loopback.
        assert irq.jobs_completed == 2


NETPROC = 5e-6

# Where each of the five loss sites drops the first request's message,
# on the web (node0) -> db (node1) chain with a netproc on both
# machines: the db message is sent at 1.015 ms, leaves node0's netproc
# at 1.020 ms, sits in node1's netproc from 1.030 to 1.035 ms, and db
# answers at 2.035 ms. Each fault is undone at 6 ms, after the first
# request timed out.
LOSS_SITES = {
    "partitioned_at_send": (0.5e-3, "partition", ("node0", "node1")),
    "partitioned_mid_flight": (1.017e-3, "partition", ("node0", "node1")),
    "tx_netproc_discards": (1.017e-3, "crash", "node0"),
    "rx_netproc_discards": (1.032e-3, "crash", "node1"),
    "response_partitioned": (1.5e-3, "partition", ("node1", "client")),
}


class TestLossAccounting:
    @pytest.mark.parametrize("site", sorted(LOSS_SITES))
    def test_a_lost_message_is_counted_once_and_frees_its_slot(
        self, sim, network, site
    ):
        cluster, deployment, dispatcher = build_world(sim, network)
        deployment.add_instance(
            build_instance(sim, cluster, "web0", "node0", tier="web")
        )
        deployment.add_instance(
            build_instance(sim, cluster, "db0", "node1", tier="db")
        )
        # One connection, so the second request's db message rides the
        # connection the first one's was lost on.
        deployment.set_pool("db", 1)
        irq = {}
        for machine in ("node0", "node1"):
            irq[machine] = build_instance(
                sim, cluster, f"netproc_{machine}", machine,
                service_time=NETPROC, tier="netproc",
            )
            deployment.set_netproc(machine, irq[machine])
        dispatcher.add_tree(
            PathTree().chain(PathNode("web", "web"), PathNode("db", "db"))
        )
        at, fault, target = LOSS_SITES[site]
        if fault == "partition":
            sim.schedule_at(at, network.partition, *target)
            sim.schedule_at(6e-3, network.heal, *target)
        else:
            sim.schedule_at(at, irq[target].crash, "drop")
            sim.schedule_at(6e-3, irq[target].recover)
        done = []
        policy = ResiliencePolicy(timeout=5e-3)
        for created_at in (0.0, 10e-3):
            request = Request(created_at=created_at)
            sim.schedule_at(created_at, dispatcher.submit, request,
                            done.append, "client", "client", policy)
        sim.run()
        assert [r.outcome for r in done] == ["timeout", "ok"]
        assert dispatcher.messages_dropped == 1
        parked = [
            conn.name
            for pool in deployment.pools
            for conn in pool.connections
            if any(conn._parked.values())
        ]
        assert parked == []


class TestTreeSelection:
    def test_request_type_routing(self, sim, network):
        cluster, deployment, dispatcher = build_world(sim, network)
        a = build_instance(sim, cluster, "fast0", "node0", service_time=1e-3, tier="fast")
        b = build_instance(sim, cluster, "slow0", "node1", service_time=5e-3, tier="slow")
        deployment.add_instance(a)
        deployment.add_instance(b)
        dispatcher.add_tree(
            PathTree("fast").chain(PathNode("fast", "fast")), request_type="read"
        )
        dispatcher.add_tree(
            PathTree("slow").chain(PathNode("slow", "slow")), request_type="write"
        )
        reads = submit(dispatcher, sim, n=1, request_type="read")
        writes = submit(dispatcher, sim, n=1, request_type="write")
        sim.run()
        assert reads[0].latency < writes[0].latency

    def test_probabilistic_tree_split(self, sim, network):
        cluster, deployment, dispatcher = build_world(sim, network)
        a = build_instance(sim, cluster, "a0", "node0", tier="a")
        b = build_instance(sim, cluster, "b0", "node1", tier="b")
        deployment.add_instance(a)
        deployment.add_instance(b)
        dispatcher.add_tree(PathTree("a").chain(PathNode("a", "a")), probability=0.7)
        dispatcher.add_tree(PathTree("b").chain(PathNode("b", "b")), probability=0.3)
        submit(dispatcher, sim, n=2000, spacing=1e-3)
        sim.run()
        fraction = a.jobs_completed / 2000
        assert fraction == pytest.approx(0.7, abs=0.04)

    def test_bad_probability_sum_rejected(self, sim, network):
        cluster, deployment, dispatcher = build_world(sim, network)
        deployment.add_instance(build_instance(sim, cluster, "a0", "node0", tier="a"))
        dispatcher.add_tree(PathTree("x").chain(PathNode("a", "a")), probability=0.5)
        dispatcher.add_tree(PathTree("y").chain(PathNode("a2", "a")), probability=0.2)
        with pytest.raises(TopologyError):
            dispatcher.submit(Request(0.0))

    def test_tree_weights_rechecked_after_add_tree(self, sim, network):
        # The weighted draw's CDF is derived once per set of trees; a
        # tree added after a pick must invalidate it and its check.
        cluster, deployment, dispatcher = build_world(sim, network)
        deployment.add_instance(build_instance(sim, cluster, "a0", "node0", tier="a"))
        dispatcher.add_tree(PathTree("x").chain(PathNode("a", "a")), probability=0.5)
        dispatcher.add_tree(PathTree("y").chain(PathNode("a2", "a")), probability=0.5)
        dispatcher.submit(Request(0.0))
        dispatcher.add_tree(PathTree("z").chain(PathNode("a3", "a")), probability=0.2)
        with pytest.raises(TopologyError, match="tree probabilities must sum to 1"):
            dispatcher.submit(Request(0.0))

    def test_no_tree_rejected(self, sim, network):
        _, _, dispatcher = build_world(sim, network)
        with pytest.raises(TopologyError):
            dispatcher.submit(Request(0.0))

    def test_duplicate_request_type_rejected(self, sim, network):
        cluster, deployment, dispatcher = build_world(sim, network)
        deployment.add_instance(build_instance(sim, cluster, "a0", "node0", tier="a"))
        dispatcher.add_tree(PathTree("x").chain(PathNode("a", "a")), request_type="r")
        with pytest.raises(TopologyError):
            dispatcher.add_tree(
                PathTree("y").chain(PathNode("a2", "a")), request_type="r"
            )


    def test_second_tree_with_a_registered_name_rejected(self, sim, network):
        # Trees are addressed by name (fallbacks, shard mailbox
        # messages), so a name must pick out one tree.
        cluster, deployment, dispatcher = build_world(sim, network)
        deployment.add_instance(build_instance(sim, cluster, "a0", "node0", tier="a"))
        dispatcher.add_tree(PathTree("x").chain(PathNode("a", "a")), probability=0.5)
        with pytest.raises(TopologyError, match="unique name"):
            dispatcher.add_tree(
                PathTree("x").chain(PathNode("a2", "a")), probability=0.5
            )
        with pytest.raises(TopologyError, match="unique name"):
            dispatcher.add_tree(
                PathTree("x").chain(PathNode("a3", "a")), request_type="r"
            )

    def test_one_tree_may_serve_several_request_types(self, sim, network):
        cluster, deployment, dispatcher = build_world(sim, network)
        deployment.add_instance(build_instance(sim, cluster, "a0", "node0", tier="a"))
        tree = PathTree("x").chain(PathNode("a", "a"))
        dispatcher.add_tree(tree, request_type="read")
        dispatcher.add_tree(tree, request_type="write")
        done = submit(dispatcher, sim, n=1, request_type="write")
        sim.run()
        assert done[0].latency > 0


class TestRoundRobinAcrossReplicas:
    def test_load_spreads_evenly(self, sim, network):
        cluster, deployment, dispatcher = build_world(sim, network, machines=2)
        a = build_instance(sim, cluster, "web0", "node0", tier="web")
        b = build_instance(sim, cluster, "web1", "node1", tier="web")
        deployment.add_instance(a)
        deployment.add_instance(b)
        dispatcher.add_tree(PathTree().chain(PathNode("web", "web")))
        submit(dispatcher, sim, n=10)
        sim.run()
        assert a.jobs_completed == 5
        assert b.jobs_completed == 5
