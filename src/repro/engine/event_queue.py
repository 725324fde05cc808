"""The simulator's central priority queue of pending events.

Paper SSIII-A: "all events are stored in increasing time order in a
priority queue. In every simulation cycle, the simulation queue manager
queries the priority queue for the earliest event."

Implemented as a binary heap (:mod:`heapq`) of precomputed
``(time, priority, seq, event)`` tuples — heap comparisons stay in C —
with lazy deletion for cancelled events and periodic compaction when
cancelled entries dominate the heap (mass cancellation is routine now
that timeouts, hedges, and circuit breakers cancel events in bulk).
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Iterator, Optional

from .event import Event

#: Compaction trigger: rebuild the heap when it holds more than this
#: many cancelled entries AND they outnumber the live ones. The floor
#: keeps small queues from churning; the ratio bounds wasted memory and
#: pop-side skip work to O(live).
_COMPACT_MIN_DEAD = 64


class EventQueue:
    """Min-heap of events ordered by ``(time, priority, seq)``.

    :meth:`push` is the only way in, so sequence numbers follow push
    order for every caller: a batch of events is pushed one by one, in
    the order its same-instant ties must run.
    """

    def __init__(self) -> None:
        self._heap: list[tuple] = []  # (time, priority, seq, event)
        self._live = 0  # number of non-cancelled events in the heap
        self._seq = 0  # per-queue FIFO tie-breaker (see Event.seq)

    def push(self, event: Event) -> Event:
        """Insert *event* and return it (handy for chaining/cancelling).

        Assigns the event's queue-local ``seq`` and builds its heap key
        here — one tuple per push instead of two per comparison. Only
        the heap holds the key, so the event never references itself.
        """
        seq = self._seq
        self._seq = seq + 1
        event.seq = seq
        event._queue = self
        heappush(self._heap, (event.time, event.priority, seq, event))
        self._live += 1
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` if empty."""
        return self.pop_due(math.inf)

    def pop_due(self, until: float) -> Optional[Event]:
        """Remove and return the earliest live event if its time is
        ``<= until``, else ``None`` (queue empty or next event later).

        The simulator's one run loop pops through this: a single
        heap-top inspection per event serves both the horizon check and
        the pop (``until=math.inf`` drains). Cancelled entries on top
        are dropped first — the lazy-deletion half of
        :meth:`Event.cancel`.
        """
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
        if not heap or heap[0][0] > until:
            return None
        event = heappop(heap)[3]
        event._queue = None
        self._live -= 1
        return event

    def peek_time(self) -> Optional[float]:
        """Timestamp of the earliest live event without removing it."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None

    def cancel(self, event: Event) -> None:
        """Cancel *event* (it stays in the heap until popped/compacted).

        The one accounting point for cancellation: ``Event.cancel()``
        delegates here whenever the event is pending, so ``len(queue)``
        never drifts no matter which handle handler code cancels
        through. Cancelling an event that already ran (or was never
        pushed) only marks it and touches no counters.
        """
        if event.cancelled:
            return
        owner = event._queue
        if owner is not self:
            # Popped/never-pushed events just get flagged; an event
            # pending in another queue is routed to its owner so that
            # queue's live count stays right.
            if owner is None:
                event.cancelled = True
            else:
                owner.cancel(event)
            return
        event.cancelled = True
        self._live -= 1
        # Compact once cancelled entries dominate: with timeouts/hedging
        # cancelling en masse, lazy deletion alone lets dead events
        # outnumber live ones at saturation and every push/pop pays
        # log(dead) instead of log(live).
        dead = len(self._heap) - self._live
        if dead > _COMPACT_MIN_DEAD and dead > self._live:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries.

        O(n); keys are untouched, so the ``(time, priority, seq)`` order
        of the surviving events is exactly preserved.
        """
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapify(self._heap)

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def __iter__(self) -> Iterator[Event]:  # pragma: no cover - debug aid
        return iter(sorted(
            entry[3] for entry in self._heap if not entry[3].cancelled
        ))

    def clear(self) -> None:
        """Drop every pending event."""
        for entry in self._heap:
            entry[3]._queue = None
        self._heap.clear()
        self._live = 0
