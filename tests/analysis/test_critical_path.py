"""Tests for critical-path analysis over traced requests."""

import pytest

from repro.analysis import analyze, critical_path, slowest_nodes, spans_of
from repro.errors import ReproError
from repro.service import Request
from repro.telemetry import SPAN_CANCELLED, Trace


def traced_request(spans):
    """Build a request carrying a synthetic trace.

    *spans* are (node, instance, enter, leave) visits of one attempt.
    """
    req = Request(0.0)
    trace = Trace(req.request_id)
    for node, instance, enter, leave in spans:
        trace.start_span(node, instance, "", 0, enter).finish(
            leave, breakdown=False
        )
    req.completed_at = max(leave for *_rest, leave in spans)
    trace.finish(req.completed_at, "ok")
    req.metadata["trace"] = trace
    return req


class TestSpans:
    def test_spans_extracted(self):
        req = traced_request([("a", "a0", 0.0, 1.0), ("b", "b0", 1.0, 3.0)])
        spans = spans_of(req)
        assert [s.node for s in spans] == ["a", "b"]
        assert spans[1].duration == pytest.approx(2.0)

    def test_untraced_request_rejected(self):
        with pytest.raises(ReproError):
            spans_of(Request(0.0))

    def test_non_trace_value_rejected_by_type(self):
        req = Request(0.0)
        req.metadata["trace"] = [("a", "a0", 0.0, 1.0)]
        with pytest.raises(ReproError, match="list"):
            spans_of(req)


class TestCriticalPath:
    def test_linear_chain_is_whole_path(self):
        req = traced_request(
            [("a", "a0", 0.0, 1.0), ("b", "b0", 1.0, 2.0), ("c", "c0", 2.0, 4.0)]
        )
        assert [s.node for s in critical_path(req)] == ["a", "b", "c"]

    def test_fanout_picks_slowest_branch(self):
        # proxy -> {fast, slow} -> join: the slow branch defines latency.
        req = traced_request([
            ("proxy", "p0", 0.0, 0.5),
            ("fast", "f0", 0.5, 1.0),
            ("slow", "s0", 0.5, 3.0),
            ("join", "p0", 3.0, 3.5),
        ])
        path = [s.node for s in critical_path(req)]
        assert path == ["proxy", "slow", "join"]
        assert "fast" not in path

    def test_empty_trace_rejected(self):
        req = Request(0.0)
        req.metadata["trace"] = Trace(req.request_id)
        with pytest.raises(ReproError, match="empty trace"):
            critical_path(req)


def span_request(visits, created_at=0.0):
    """Build a request carrying a Span-model trace.

    *visits* are (node, attempt, enter, leave[, status]) tuples.
    """
    req = Request(created_at)
    trace = Trace(req.request_id, created_at=created_at)
    for node, attempt, enter, leave, *rest in visits:
        span = trace.start_span(node, f"{node}0", node, attempt, enter)
        span.finish(leave, status=rest[0] if rest else "ok",
                    breakdown=False)
    req.completed_at = max(leave for _, _, _, leave, *_ in visits)
    trace.finish(req.completed_at, "ok")
    req.metadata["trace"] = trace
    return req


class TestSpanModelCriticalPath:
    def test_overlapping_fanout_branches(self):
        # Branch spans overlap in time: fast (0.5-2.1) is still running
        # when slow (0.6-3.0) starts, and overlaps the proxy span too.
        # The walk must pick the branch the join actually waited for,
        # not merely the last-started one.
        req = span_request([
            ("proxy", 0, 0.0, 0.7),
            ("fast", 0, 0.5, 2.1),
            ("slow", 0, 0.6, 3.0),
            ("join", 0, 3.0, 3.5),
        ])
        path = [s.node for s in critical_path(req)]
        assert path == ["slow", "join"]
        # 'fast' overlaps 'slow' entirely within the wait, never on it.
        assert "fast" not in path

    def test_traced_retry_failed_attempt_joins_path(self):
        # Attempt 0 timed out (cancelled at 1.0); the retry ran 1.2-2.0.
        # The cancelled span is genuinely spent latency: it belongs on
        # the chain.
        req = span_request([
            ("web", 0, 0.0, 1.0, SPAN_CANCELLED),
            ("web", 1, 1.2, 2.0),
        ])
        path = critical_path(req)
        assert [(s.node, s.attempt) for s in path] == [
            ("web", 0), ("web", 1),
        ]

    def test_hedge_loser_never_anchors_the_path(self):
        # The losing hedge attempt is cancelled at resolution time —
        # *after* the winner's span closed. It must neither anchor the
        # backwards walk nor join the chain.
        req = span_request([
            ("web", 0, 0.0, 2.05, SPAN_CANCELLED),  # loser, dies last
            ("web", 1, 0.5, 2.0),                   # winner
        ])
        path = critical_path(req)
        assert [(s.node, s.attempt) for s in path] == [("web", 1)]

    def test_analyze_covers_cancelled_path_nodes(self):
        req = span_request([
            ("web", 0, 0.0, 1.0, SPAN_CANCELLED),
            ("web", 1, 1.2, 2.0),
        ])
        contributions = analyze([req])
        assert contributions["web"].visits == 2
        assert contributions["web"].critical_fraction == 1.0


class TestAggregation:
    def make_requests(self):
        # Two requests: 'slow' on the path both times, 'fast' never.
        return [
            traced_request([
                ("proxy", "p0", 0.0, 0.5),
                ("fast", "f0", 0.5, 1.0),
                ("slow", "s0", 0.5, 3.0),
                ("join", "p0", 3.0, 3.5),
            ]),
            traced_request([
                ("proxy", "p0", 0.0, 0.4),
                ("fast", "f0", 0.4, 0.8),
                ("slow", "s0", 0.4, 2.0),
                ("join", "p0", 2.0, 2.2),
            ]),
        ]

    def test_analyze_contributions(self):
        contributions = analyze(self.make_requests())
        assert contributions["slow"].critical_fraction == 1.0
        assert contributions["fast"].critical_fraction == 0.0
        assert contributions["slow"].visits == 2
        assert contributions["slow"].mean_span == pytest.approx(2.05)

    def test_slowest_nodes_ranking(self):
        ranked = slowest_nodes(self.make_requests(), top=2)
        assert ranked[0][0] == "slow"

    def test_analyze_empty_rejected(self):
        with pytest.raises(ReproError):
            analyze([])


class TestEndToEndWithDispatcher:
    def test_real_traced_run_blames_the_slow_tier(self):
        from repro.distributions import Deterministic
        from repro.engine import Simulator
        from repro.hardware import NetworkFabric
        from repro.topology import Dispatcher, PathNode, PathTree

        from ..topology.conftest import build_instance, build_world

        sim = Simulator(seed=0)
        network = NetworkFabric(
            propagation=Deterministic(1e-6), loopback=Deterministic(1e-6)
        )
        cluster, deployment, _ = build_world(sim, network)
        deployment.add_instance(
            build_instance(sim, cluster, "fast0", "node0",
                           service_time=1e-4, tier="fast")
        )
        deployment.add_instance(
            build_instance(sim, cluster, "slow0", "node1",
                           service_time=5e-3, tier="slow")
        )
        dispatcher = Dispatcher(sim, deployment, network, trace=True)
        tree = PathTree()
        tree.add_node(PathNode("root", "fast"))
        tree.add_node(PathNode("fastleaf", "fast", same_instance_as="root"))
        tree.add_node(PathNode("slowleaf", "slow"))
        tree.add_edge("root", "fastleaf")
        tree.add_edge("root", "slowleaf")
        tree.add_node(PathNode("join", "fast", same_instance_as="root"))
        tree.add_edge("fastleaf", "join")
        tree.add_edge("slowleaf", "join")
        dispatcher.add_tree(tree)

        done = []
        for i in range(20):
            req = Request(created_at=i * 1e-3)
            sim.schedule_at(req.created_at, dispatcher.submit, req, done.append)
        sim.run()
        ranked = slowest_nodes(done, top=1)
        assert ranked[0][0] == "slowleaf"
