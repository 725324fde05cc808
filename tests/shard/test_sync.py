"""Conservative-sync correctness: guards, stalls, and the central
property — mailbox exchange delivers exactly what in-process dispatch
would, across seeds, window caps and shard counts."""

import math

import pytest

from repro.engine import PRIORITY_ARRIVAL, Simulator
from repro.errors import ShardingError
from repro.shard import ConservativeCoordinator, ShardHost, ShardMessage

LOOKAHEAD = 1e-3


class ToyHost(ShardHost):
    """A self-ticking shard that pings its ring neighbour; every ping
    is answered by a pong. Stamps carry an RNG gap on top of the
    lookahead so delivery times are irregular."""

    def __init__(self, shard_id, n_shards, ticks, sim=None, seed=0):
        if sim is None:
            sim = Simulator(seed=seed)
        super().__init__(shard_id, sim, LOOKAHEAD)
        self.n_shards = n_shards
        self._ticks = ticks
        self._rng = sim.random.stream(f"toy/shard{shard_id}")
        self.log = []
        self.sim.schedule_at(0.0, self._tick, 0)

    def _tick(self, k):
        now = self.sim.now
        self.log.append(("tick", now, k))
        gap = float(self._rng.exponential(5e-4))
        dst = (self.shard_id + 1) % self.n_shards
        self.deliver_to(dst, now + LOOKAHEAD + gap, "ping", (self.shard_id, k))
        if k + 1 < self._ticks:
            wait = float(self._rng.exponential(1e-3))
            self.sim.schedule_at(now + wait, self._tick, k + 1)

    def handle(self, message):
        self.log.append((message.kind, message.time, message.payload))
        if message.kind == "ping":
            src, k = message.payload
            self.deliver_to(
                src, self.sim.now + LOOKAHEAD, "pong", (self.shard_id, k)
            )

    def deliver_to(self, dst, time, kind, payload):
        self.send(dst, time, kind, payload)


class LocalToyHost(ToyHost):
    """The in-process reference: identical model, but ``deliver_to``
    schedules straight onto the peer's (shared) simulator instead of
    going through the mailbox."""

    peers = None

    def deliver_to(self, dst, time, kind, payload):
        message = ShardMessage(
            time=float(time), priority=PRIORITY_ARRIVAL,
            src_shard=self.shard_id, seq=0, kind=kind, payload=payload,
        )
        self.sim.schedule_at(
            time, self.peers[dst].handle, message,
            priority=PRIORITY_ARRIVAL,
        )


def mesh_edges(n):
    return {
        (i, j): LOOKAHEAD for i in range(n) for j in range(n) if i != j
    }


def run_reference(n_shards, ticks, seed):
    sim = Simulator(seed=seed)
    hosts = [
        LocalToyHost(i, n_shards, ticks, sim=sim) for i in range(n_shards)
    ]
    for host in hosts:
        host.peers = hosts
    sim.run()
    return [host.log for host in hosts]


def run_mailbox(n_shards, ticks, seed, max_window=None):
    hosts = [
        ToyHost(i, n_shards, ticks, seed=seed) for i in range(n_shards)
    ]
    coordinator = ConservativeCoordinator(
        hosts, mesh_edges(n_shards), max_window=max_window
    )
    coordinator.run()
    return [host.log for host in hosts], coordinator


class TestMailboxEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_shards", [2, 3, 4])
    def test_mailbox_matches_in_process(self, seed, n_shards):
        reference = run_reference(n_shards, ticks=20, seed=seed)
        sharded, _ = run_mailbox(n_shards, ticks=20, seed=seed)
        assert sharded == reference

    @pytest.mark.parametrize("max_window", [None, 2e-3, 5e-4, 1e-5])
    def test_window_cap_changes_rounds_not_results(self, max_window):
        reference = run_reference(3, ticks=15, seed=5)
        sharded, coordinator = run_mailbox(
            3, ticks=15, seed=5, max_window=max_window
        )
        assert sharded == reference
        assert coordinator.rounds > 0
        assert coordinator.messages_exchanged > 0

    def test_tighter_window_means_more_rounds(self):
        _, loose = run_mailbox(2, ticks=15, seed=9)
        _, tight = run_mailbox(2, ticks=15, seed=9, max_window=1e-5)
        assert tight.rounds > loose.rounds


class IdleHost(ShardHost):
    def __init__(self, shard_id):
        super().__init__(shard_id, Simulator(seed=0), LOOKAHEAD)

    def handle(self, message):  # pragma: no cover - never delivered
        raise AssertionError


class RecordingHost(ShardHost):
    def __init__(self):
        super().__init__(0, Simulator(seed=0), LOOKAHEAD)
        self.log = []

    def handle(self, message):
        self.log.append((message.src_shard, message.seq))


class TestInboundOrder:
    def test_equal_stamps_run_in_sort_key_order_after_local_events(self):
        # Same-instant ties must not depend on the order the shards
        # handed their messages over: inbound messages run in sort_key
        # order, after the local events already queued at that instant.
        host = RecordingHost()
        t = 2 * LOOKAHEAD
        host.sim.schedule_at(t, host.log.append, "local",
                             priority=PRIORITY_ARRIVAL)
        scrambled = [
            ShardMessage(time=t, priority=PRIORITY_ARRIVAL, src_shard=src,
                         seq=seq, kind="x", payload=())
            for src, seq in ((2, 1), (1, 1), (2, 0), (1, 0))
        ]
        host.advance(t, scrambled)
        assert host.log == ["local", (1, 0), (1, 1), (2, 0), (2, 1)]


class TestGuards:
    def test_send_below_lookahead_rejected(self):
        host = IdleHost(0)
        with pytest.raises(ShardingError, match="conservative windows"):
            host.send(1, host.sim.now + LOOKAHEAD / 2, "x", ())

    def test_send_at_exact_lookahead_allowed(self):
        host = IdleHost(0)
        host.send(1, host.sim.now + LOOKAHEAD, "x", ())

    def test_receive_in_past_rejected(self):
        host = ToyHost(0, 2, ticks=3, seed=0)
        host.advance(0.01, [])
        stale = ShardMessage(
            time=0.001, priority=0, src_shard=1, seq=1, kind="x", payload=(),
        )
        with pytest.raises(ShardingError, match="not conservative"):
            host.advance(0.02, [stale])

    def test_nonpositive_edge_lookahead_rejected(self):
        hosts = [IdleHost(0), IdleHost(1)]
        with pytest.raises(ShardingError, match="non-positive"):
            ConservativeCoordinator(hosts, {(0, 1): 0.0, (1, 0): 1e-3})

    def test_edge_outside_range_rejected(self):
        with pytest.raises(ShardingError, match="outside"):
            ConservativeCoordinator([IdleHost(0)], {(0, 5): 1e-3})

    def test_bad_max_window_rejected(self):
        with pytest.raises(ShardingError, match="max_window"):
            ConservativeCoordinator([IdleHost(0)], {}, max_window=0.0)

    def test_unknown_destination_shard_rejected(self):
        class Misrouter(ShardHost):
            def __init__(self):
                super().__init__(0, Simulator(seed=0), LOOKAHEAD)
                self.sim.schedule_at(0.0, self._go)

            def _go(self):
                self.send(7, self.sim.now + LOOKAHEAD, "x", ())

            def handle(self, message):  # pragma: no cover
                raise AssertionError

        coordinator = ConservativeCoordinator(
            [Misrouter(), IdleHost(1)],
            {(0, 1): LOOKAHEAD, (1, 0): LOOKAHEAD},
        )
        with pytest.raises(ShardingError, match="unknown shard"):
            coordinator.run()


class LyingHost(ShardHost):
    """Reports a horizon it never executes — a broken host contract
    the stall detector must catch rather than loop forever."""

    def __init__(self, shard_id):
        super().__init__(shard_id, Simulator(seed=0), LOOKAHEAD)

    def horizon(self):
        return 5.0

    def handle(self, message):  # pragma: no cover
        raise AssertionError


class TestStallDetection:
    def test_stalled_rounds_raise(self):
        hosts = [LyingHost(0), LyingHost(1)]
        coordinator = ConservativeCoordinator(
            hosts, {(0, 1): LOOKAHEAD, (1, 0): LOOKAHEAD}
        )
        with pytest.raises(ShardingError, match="stalled"):
            coordinator.run()


class TestEndTime:
    def test_events_past_end_time_do_not_count(self):
        host = IdleHost(0)
        host.end_time = 1.0
        host.sim.schedule_at(2.0, lambda: None)
        assert math.isinf(host.horizon())

    def test_event_exactly_at_end_time_counts(self):
        host = IdleHost(0)
        host.end_time = 1.0
        host.sim.schedule_at(1.0, lambda: None)
        assert host.horizon() == 1.0
        horizon, out = host.advance(5.0, [])
        assert math.isinf(horizon)
        assert host.sim.events_processed == 1
        assert out == []
