"""Unit tests for the event heap: ordering, tie-breaking, cancellation."""

import gc

import pytest

from repro.engine import Event, EventQueue


def make(time, priority=0, tag=None):
    return Event(time, lambda: tag, priority=priority)


class TestOrdering:
    def test_pops_in_time_order(self):
        q = EventQueue()
        for t in [3.0, 1.0, 2.0]:
            q.push(make(t))
        assert [q.pop().time for _ in range(3)] == [1.0, 2.0, 3.0]

    def test_priority_breaks_time_ties(self):
        q = EventQueue()
        low = q.push(make(1.0, priority=10))
        high = q.push(make(1.0, priority=-10))
        assert q.pop() is high
        assert q.pop() is low

    def test_fifo_among_equal_time_and_priority(self):
        q = EventQueue()
        events = [q.push(make(5.0)) for _ in range(20)]
        popped = [q.pop() for _ in range(20)]
        assert popped == events

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None


class TestCancellation:
    def test_cancelled_event_is_skipped(self):
        q = EventQueue()
        first = q.push(make(1.0))
        second = q.push(make(2.0))
        q.cancel(first)
        assert q.pop() is second

    def test_cancel_updates_len(self):
        q = EventQueue()
        e = q.push(make(1.0))
        assert len(q) == 1
        q.cancel(e)
        assert len(q) == 0
        assert not q

    def test_double_cancel_is_idempotent(self):
        q = EventQueue()
        e = q.push(make(1.0))
        q.cancel(e)
        q.cancel(e)
        assert len(q) == 0

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        first = q.push(make(1.0))
        q.push(make(2.0))
        q.cancel(first)
        assert q.peek_time() == 2.0


class TestDrain:
    def test_pop_due_respects_bound(self):
        q = EventQueue()
        for t in [1.0, 2.0, 3.0]:
            q.push(make(t))
        seen = list(iter(lambda: q.pop_due(2.0), None))
        assert [e.time for e in seen] == [1.0, 2.0]
        assert len(q) == 1

    def test_clear_empties_queue(self):
        q = EventQueue()
        q.push(make(1.0))
        q.clear()
        assert q.pop() is None


class TestPeek:
    def test_peek_time_none_when_empty(self):
        assert EventQueue().peek_time() is None

    def test_peek_does_not_remove(self):
        q = EventQueue()
        q.push(make(4.0))
        assert q.peek_time() == 4.0
        assert len(q) == 1


class TestDirectCancel:
    """Event.cancel() and queue.cancel(event) must agree on accounting."""

    def test_event_cancel_updates_queue_len(self):
        q = EventQueue()
        e = q.push(make(1.0))
        e.cancel()
        assert e.cancelled
        assert len(q) == 0

    def test_event_cancel_then_queue_cancel_idempotent(self):
        q = EventQueue()
        e = q.push(make(1.0))
        e.cancel()
        q.cancel(e)
        assert len(q) == 0

    def test_cancel_unqueued_event_only_flags(self):
        e = make(1.0)
        e.cancel()
        assert e.cancelled

    def test_cancel_popped_event_does_not_corrupt_len(self):
        q = EventQueue()
        e = q.push(make(1.0))
        q.push(make(2.0))
        assert q.pop() is e
        e.cancel()  # already out of the queue: flag only
        assert len(q) == 1

    def test_cancel_foreign_event_does_not_touch_len(self):
        q1, q2 = EventQueue(), EventQueue()
        e = q1.push(make(1.0))
        q2.push(make(2.0))
        q2.cancel(e)  # e belongs to q1
        assert e.cancelled
        assert len(q1) == 0  # owner decremented via delegation
        assert len(q2) == 1

    def test_cancel_after_clear_is_harmless(self):
        q = EventQueue()
        e = q.push(make(1.0))
        q.clear()
        e.cancel()
        assert len(q) == 0


class TestHeavyCancellation:
    """Live-count invariants and compaction under mass cancellation."""

    def test_live_count_invariant_under_interleaved_ops(self):
        q = EventQueue()
        events = [q.push(make(float(i % 7), priority=i % 3))
                  for i in range(300)]
        for e in events[::2]:
            q.cancel(e)
        assert len(q) == 150
        live = sorted(events[1::2], key=lambda e: (e.time, e.priority, e.seq))
        assert [q.pop() for _ in range(150)] == live
        assert len(q) == 0
        assert q.pop() is None

    def test_peek_time_after_cancelling_head_run(self):
        q = EventQueue()
        head = [q.push(make(1.0)) for _ in range(50)]
        q.push(make(9.0))
        for e in head:
            q.cancel(e)
        assert q.peek_time() == 9.0
        assert len(q) == 1

    def test_compaction_preserves_order(self):
        # Trigger compaction (> 64 dead and dead > live) and check the
        # survivors still pop in (time, priority, seq) order.
        q = EventQueue()
        doomed = [q.push(make(float(i), priority=-(i % 5)))
                  for i in range(100)]
        keepers = [q.push(make(50.0, priority=p)) for p in (3, -2, 0, -2)]
        for e in doomed:
            q.cancel(e)
        assert len(q) == len(keepers)
        expected = sorted(keepers, key=lambda e: (e.time, e.priority, e.seq))
        assert [q.pop() for _ in range(len(keepers))] == expected

    def test_cancel_all_then_reuse(self):
        q = EventQueue()
        for _ in range(200):
            e = q.push(make(1.0))
            q.cancel(e)
        assert len(q) == 0
        fresh = q.push(make(2.0))
        assert q.pop() is fresh

    def test_pop_due_with_interleaved_cancels(self):
        q = EventQueue()
        events = [q.push(make(float(i))) for i in range(10)]
        for e in events[1::2]:  # cancel 1,3,5,7,9
            e.cancel()
        seen = list(iter(lambda: q.pop_due(6.0), None))
        assert [e.time for e in seen] == [0.0, 2.0, 4.0, 6.0]
        assert len(q) == 1  # only 8.0 left live
        assert q.pop().time == 8.0


class TestSeqIsolation:
    def test_seq_counters_are_per_queue(self):
        # Two queues must hand out independent seq numbers so FIFO
        # tie-breaking is reproducible regardless of other simulators.
        q1, q2 = EventQueue(), EventQueue()
        a = q1.push(make(1.0))
        q2.push(make(1.0))
        q2.push(make(1.0))
        b = q1.push(make(1.0))
        assert (a.seq, b.seq) == (0, 1)


class TestNoReferenceCycles:
    def test_spent_events_are_freed_without_the_collector(self):
        # The heap key lives only in the heap, so an event that was
        # popped, purged or compacted away is freed by reference
        # counting alone.
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            q = EventQueue()
            events = [q.push(make(float(i % 11), priority=i % 3))
                      for i in range(200)]
            batch = [make(float(i % 13)) for i in range(100)]
            for e in batch:
                q.push(e)
            for e in events[::3] + events[1::3] + batch[::2]:
                e.cancel()
            assert len(q._heap) < 300  # dead entries outnumbered: compacted
            head = [q.pop() for _ in range(40)]
            for e in batch[1::2]:
                q.cancel(e)
            q.peek_time()  # purges the cancelled head
            assert all(e is not None for e in head)
            del events, batch, head, e
            while q.pop() is not None:
                pass
            assert len(q) == 0
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()
