"""Dispatcher-level resilience: timeouts with real cancellation,
retries under budget, hedging, circuit breaking, and load shedding."""

import pytest

from repro.resilience import (
    OPEN,
    AdmissionPolicy,
    BreakerPolicy,
    HedgePolicy,
    ResiliencePolicy,
    RetryBudget,
    RetryPolicy,
)
from repro.service import Request
from repro.topology import NodeOp, PathNode, PathTree

from ..topology.conftest import build_instance, build_world


def submit_with(dispatcher, sim, policy, n=1, spacing=0.0, at=0.0):
    done = []
    for i in range(n):
        req = Request(created_at=at + i * spacing)
        sim.schedule_at(
            req.created_at, dispatcher.submit, req, done.append,
            "client", "client", policy,
        )
    return done


def assert_quiescent(deployment):
    """After a drained run nothing may still hold a resource — the
    cancellation-conservation invariant."""
    for inst in deployment.all_instances:
        assert inst.pending_dispatch == 0, inst.name
        assert inst.queued_jobs == 0, inst.name
        assert inst.cores.free_count == len(inst.cores), inst.name
    for pool in deployment.pools:
        for conn in pool.connections:
            assert conn.outstanding == 0, conn.name
            assert not conn.blocked, conn.name


class TestTimeout:
    def test_slow_request_times_out(self, sim, network):
        cluster, deployment, dispatcher = build_world(sim, network)
        deployment.add_instance(
            build_instance(sim, cluster, "web0", "node0",
                           service_time=10e-3, tier="web")
        )
        dispatcher.add_tree(PathTree().chain(PathNode("web", "web")))
        done = submit_with(
            dispatcher, sim, ResiliencePolicy(timeout=2e-3)
        )
        sim.run()
        assert done[0].outcome == "timeout"
        assert done[0].latency == pytest.approx(2e-3)
        assert dispatcher.requests_timed_out == 1
        assert dispatcher.requests_completed == 0

    def test_fast_request_unaffected(self, sim, network):
        cluster, deployment, dispatcher = build_world(sim, network)
        deployment.add_instance(
            build_instance(sim, cluster, "web0", "node0",
                           service_time=1e-3, tier="web")
        )
        dispatcher.add_tree(PathTree().chain(PathNode("web", "web")))
        done = submit_with(
            dispatcher, sim, ResiliencePolicy(timeout=50e-3)
        )
        sim.run()
        assert done[0].outcome == "ok"
        assert done[0].ok

    def test_outcome_exceptions_map(self, sim, network):
        from repro.errors import RequestTimeout

        cluster, deployment, dispatcher = build_world(sim, network)
        deployment.add_instance(
            build_instance(sim, cluster, "web0", "node0",
                           service_time=10e-3, tier="web")
        )
        dispatcher.add_tree(PathTree().chain(PathNode("web", "web")))
        done = submit_with(dispatcher, sim, ResiliencePolicy(timeout=1e-3))
        sim.run()
        with pytest.raises(RequestTimeout):
            done[0].raise_for_outcome()


class TestCancellationConservesResources:
    """The property test: whatever mix of timeouts, hedges, and blocking
    ops a run produces, draining the simulator leaves every core,
    queue slot, and connection back at idle."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("pool_size", [1, 2])
    def test_timeout_storm_leaves_no_residue(
        self, network, pool_size, seed
    ):
        from repro.engine import Simulator

        sim = Simulator(seed=seed)
        cluster, deployment, dispatcher = build_world(sim, network)
        deployment.add_instance(
            build_instance(sim, cluster, "web0", "node0",
                           service_time=3e-3, tier="web")
        )
        deployment.add_instance(
            build_instance(sim, cluster, "db0", "node1",
                           service_time=4e-3, tier="db")
        )
        deployment.set_pool("web", pool_size)
        deployment.set_pool("db", pool_size)
        # http1.1-style blocking makes cancellation reclaim blocks too.
        tree = PathTree().chain(
            PathNode("web", "web",
                     on_enter=NodeOp.block(), on_leave=NodeOp.unblock()),
            PathNode("db", "db"),
        )
        dispatcher.add_tree(tree)
        rng = sim.random.stream("test")
        # Base chain latency ~7ms; queued requests blow the deadline.
        policy = ResiliencePolicy(timeout=9e-3)
        done = []
        t = 0.0
        for _ in range(40):
            t += float(rng.uniform(0.0, 2e-3))
            req = Request(created_at=t)
            sim.schedule_at(
                t, dispatcher.submit, req, done.append,
                "client", "client", policy,
            )
        sim.run()
        assert len(done) == 40
        assert dispatcher.requests_timed_out > 0  # storm actually hit
        assert dispatcher.requests_completed > 0
        assert_quiescent(deployment)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hedge_cancel_leaves_no_residue(self, network, seed):
        from repro.engine import Simulator

        sim = Simulator(seed=seed)
        cluster, deployment, dispatcher = build_world(sim, network)
        deployment.add_instance(
            build_instance(sim, cluster, "web0", "node0",
                           service_time=20e-3, tier="web")
        )
        deployment.add_instance(
            build_instance(sim, cluster, "web1", "node1",
                           service_time=1e-3, tier="web")
        )
        dispatcher.add_tree(PathTree().chain(PathNode("web", "web")))
        policy = ResiliencePolicy(hedge=HedgePolicy(delay=3e-3))
        done = submit_with(dispatcher, sim, policy, n=10, spacing=5e-3)
        sim.run()
        assert all(r.outcome == "ok" for r in done)
        assert dispatcher.hedges_issued > 0
        assert_quiescent(deployment)

    def test_timed_out_primary_keeps_live_hedges_block(self, sim, network):
        # Blocks are per request: when the primary times out at 3ms, the
        # hedge launched at 1ms still rides the one blocked connection,
        # so the block must stay with the request until the hedge ends.
        cluster, deployment, dispatcher = build_world(sim, network)
        deployment.add_instance(
            build_instance(sim, cluster, "web0", "node0",
                           service_time=5e-3, tier="web")
        )
        deployment.set_pool("web", 1)
        dispatcher.add_tree(PathTree().chain(
            PathNode("web", "web",
                     on_enter=NodeOp.block(), on_leave=NodeOp.unblock()),
        ))
        policy = ResiliencePolicy(
            timeout=3e-3, hedge=HedgePolicy(delay=1e-3)
        )
        req = Request(created_at=0.0)
        sim.schedule_at(0.0, dispatcher.submit, req, None,
                        "client", "client", policy)
        sim.run(until=2.9e-3)
        (pool,) = deployment.pools
        (conn,) = pool.connections
        assert conn.holder == req.request_id
        sim.run(until=3.1e-3)
        assert req.attempts == 2 and req.outcome is None
        assert conn.holder == req.request_id
        sim.run()
        assert req.outcome == "timeout"
        assert_quiescent(deployment)


class TestRetry:
    def two_replica_world(self, sim, network, slow=50e-3, fast=1e-3):
        cluster, deployment, dispatcher = build_world(sim, network)
        deployment.add_instance(
            build_instance(sim, cluster, "web0", "node0",
                           service_time=slow, tier="web")
        )
        deployment.add_instance(
            build_instance(sim, cluster, "web1", "node1",
                           service_time=fast, tier="web")
        )
        dispatcher.add_tree(PathTree().chain(PathNode("web", "web")))
        return deployment, dispatcher

    def test_retry_rescues_timed_out_attempt(self, sim, network):
        _, dispatcher = self.two_replica_world(sim, network)
        policy = ResiliencePolicy(
            timeout=10e-3,
            retry=RetryPolicy(max_attempts=2, backoff_base=1e-3, jitter=0.0),
        )
        # Round-robin sends attempt 1 to the slow replica (times out)
        # and the retry to the fast one.
        done = submit_with(dispatcher, sim, policy)
        sim.run()
        assert done[0].outcome == "ok"
        assert done[0].attempts == 2
        assert dispatcher.retries_issued == 1
        # Latency spans the whole request including the failed attempt.
        assert done[0].latency > 10e-3

    def test_attempts_exhausted_resolves_timeout(self, sim, network):
        _, dispatcher = self.two_replica_world(
            sim, network, slow=50e-3, fast=50e-3
        )
        policy = ResiliencePolicy(
            timeout=5e-3,
            retry=RetryPolicy(max_attempts=3, backoff_base=1e-3, jitter=0.0),
        )
        done = submit_with(dispatcher, sim, policy)
        sim.run()
        assert done[0].outcome == "timeout"
        assert done[0].attempts == 3

    def test_budget_caps_retries(self, sim, network):
        _, dispatcher = self.two_replica_world(
            sim, network, slow=50e-3, fast=50e-3
        )
        budget = RetryBudget(ratio=0.0, min_tokens=1)
        policy = ResiliencePolicy(
            timeout=5e-3,
            retry=RetryPolicy(
                max_attempts=4, backoff_base=1e-3, jitter=0.0, budget=budget
            ),
        )
        done = submit_with(dispatcher, sim, policy, n=3, spacing=100e-3)
        sim.run()
        # One retry token for the whole client: only the first timeout
        # may retry; later requests fail without amplification.
        assert dispatcher.retries_issued == 1
        assert [r.outcome for r in done] == ["timeout"] * 3
        assert budget.retries == 1


class TestHedging:
    def test_hedge_wins_race_and_cancels_loser(self, sim, network):
        cluster, deployment, dispatcher = build_world(sim, network)
        deployment.add_instance(
            build_instance(sim, cluster, "web0", "node0",
                           service_time=50e-3, tier="web")
        )
        deployment.add_instance(
            build_instance(sim, cluster, "web1", "node1",
                           service_time=1e-3, tier="web")
        )
        dispatcher.add_tree(PathTree().chain(PathNode("web", "web")))
        policy = ResiliencePolicy(hedge=HedgePolicy(delay=5e-3))
        done = submit_with(dispatcher, sim, policy)
        sim.run()
        assert done[0].outcome == "ok"
        # Finished via the hedge: ~5ms delay + 1ms service + hops,
        # far below the primary's 50ms.
        assert done[0].latency < 10e-3
        assert dispatcher.hedges_issued == 1
        assert dispatcher.attempts_launched == 2
        assert dispatcher.requests_completed == 1  # resolved exactly once

    def test_fast_primary_never_hedges(self, sim, network):
        cluster, deployment, dispatcher = build_world(sim, network)
        deployment.add_instance(
            build_instance(sim, cluster, "web0", "node0",
                           service_time=1e-3, tier="web")
        )
        dispatcher.add_tree(PathTree().chain(PathNode("web", "web")))
        policy = ResiliencePolicy(hedge=HedgePolicy(delay=20e-3))
        done = submit_with(dispatcher, sim, policy)
        sim.run()
        assert done[0].outcome == "ok"
        assert dispatcher.hedges_issued == 0
        assert dispatcher.attempts_launched == 1


class TestCircuitBreaker:
    def test_breaker_opens_on_dead_service_and_recovers(self, sim, network):
        cluster, deployment, dispatcher = build_world(sim, network)
        web = build_instance(sim, cluster, "web0", "node0",
                             service_time=1e-3, tier="web")
        deployment.add_instance(web)
        dispatcher.add_tree(PathTree().chain(PathNode("web", "web")))
        web.crash()
        policy = ResiliencePolicy(
            breaker=BreakerPolicy(failure_threshold=2, reset_timeout=50e-3)
        )
        done = submit_with(dispatcher, sim, policy, n=4, spacing=1e-3)
        sim.schedule_at(20e-3, web.recover)
        # After recovery + reset_timeout the probe closes the breaker.
        late = submit_with(dispatcher, sim, policy, n=1, at=80e-3)
        sim.run()
        assert [r.outcome for r in done] == ["failed"] * 4
        breaker = dispatcher.breaker("client", "web")
        assert breaker is not None
        assert breaker.opens >= 1
        assert late[0].outcome == "ok"

    def test_open_breaker_fails_fast(self, sim, network):
        cluster, deployment, dispatcher = build_world(sim, network)
        web = build_instance(sim, cluster, "web0", "node0",
                             service_time=1e-3, tier="web")
        deployment.add_instance(web)
        dispatcher.add_tree(PathTree().chain(PathNode("web", "web")))
        web.crash()
        policy = ResiliencePolicy(
            breaker=BreakerPolicy(failure_threshold=1, reset_timeout=1.0)
        )
        submit_with(dispatcher, sim, policy, n=1)
        sim.run()
        assert dispatcher.breaker("client", "web").state == OPEN
        # Recover the instance but keep the breaker open: requests still
        # fail fast without touching the service.
        web.recover()
        done = submit_with(dispatcher, sim, policy, n=1, at=sim.now + 1e-3)
        sim.run()
        assert done[0].outcome == "failed"
        assert web.jobs_completed == 0


    def test_timeout_blames_only_the_edge_left_unanswered(self, sim, network):
        # web answers in 1ms and db never within the 5ms deadline: each
        # timeout counts against web0 -> db, while client -> web saw
        # web leave and stays clean.
        cluster, deployment, dispatcher = build_world(sim, network)
        deployment.add_instance(
            build_instance(sim, cluster, "web0", "node0",
                           service_time=1e-3, tier="web")
        )
        deployment.add_instance(
            build_instance(sim, cluster, "db0", "node1",
                           service_time=20e-3, tier="db")
        )
        dispatcher.add_tree(
            PathTree().chain(PathNode("web", "web"), PathNode("db", "db"))
        )
        policy = ResiliencePolicy(
            timeout=5e-3,
            breaker=BreakerPolicy(failure_threshold=5, reset_timeout=1.0),
        )
        done = submit_with(dispatcher, sim, policy, n=2, spacing=30e-3)
        sim.run()
        assert [r.outcome for r in done] == ["timeout"] * 2
        assert dispatcher.breaker("web0", "db").consecutive_failures == 2
        assert dispatcher.breaker("client", "web").consecutive_failures == 0


class TestAdmission:
    def test_sheds_over_queue_limit(self, sim, network):
        cluster, deployment, dispatcher = build_world(sim, network)
        deployment.add_instance(
            build_instance(sim, cluster, "web0", "node0",
                           service_time=10e-3, tier="web")
        )
        dispatcher.add_tree(PathTree().chain(PathNode("web", "web")))
        policy = ResiliencePolicy(admission=AdmissionPolicy(max_queue=0))
        done = submit_with(dispatcher, sim, policy, n=2, spacing=1e-3)
        sim.run()
        outcomes = sorted(r.outcome for r in done)
        assert outcomes == ["ok", "shed"]
        assert dispatcher.requests_shed == 1
        shed = next(r for r in done if r.outcome == "shed")
        assert shed.latency == pytest.approx(0.0)

    def test_fallback_tree_serves_degraded(self, sim, network):
        cluster, deployment, dispatcher = build_world(sim, network)
        deployment.add_instance(
            build_instance(sim, cluster, "web0", "node0",
                           service_time=10e-3, tier="web")
        )
        cheap = build_instance(sim, cluster, "cache0", "node1",
                               service_time=1e-4, tier="cache")
        deployment.add_instance(cheap)
        dispatcher.add_tree(
            PathTree("full").chain(PathNode("web", "web"))
        )
        dispatcher.add_fallback_tree(
            PathTree("cheap").chain(PathNode("cache", "cache"))
        )
        policy = ResiliencePolicy(
            admission=AdmissionPolicy(max_queue=0, fallback_tree="cheap")
        )
        done = submit_with(dispatcher, sim, policy, n=2, spacing=1e-3)
        sim.run()
        assert [r.outcome for r in done] == ["ok", "ok"]
        degraded = [r for r in done if r.metadata.get("degraded")]
        assert len(degraded) == 1
        assert dispatcher.fallbacks_served == 1
        assert cheap.jobs_completed == 1


class TestPartition:
    def test_partition_drops_messages_until_heal(self, sim, network):
        cluster, deployment, dispatcher = build_world(sim, network)
        deployment.add_instance(
            build_instance(sim, cluster, "web0", "node0",
                           service_time=1e-3, tier="web")
        )
        dispatcher.add_tree(PathTree().chain(PathNode("web", "web")))
        network.partition("client", "node0")
        policy = ResiliencePolicy(timeout=5e-3)
        lost = submit_with(dispatcher, sim, policy, n=1)
        sim.schedule_at(10e-3, network.heal, "client", "node0")
        saved = submit_with(dispatcher, sim, policy, n=1, at=20e-3)
        sim.run()
        assert lost[0].outcome == "timeout"
        assert saved[0].outcome == "ok"
        assert dispatcher.messages_dropped >= 1
        assert_quiescent(deployment)
