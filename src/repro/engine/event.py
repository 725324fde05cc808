"""Simulation events.

uqSim is a discrete-event simulator (paper SSIII-A): every state change
is an :class:`Event` with a timestamp, kept in a priority queue and
executed in increasing time order. An event may represent the arrival
or completion of a job in a microservice, as well as cluster
administration operations such as a DVFS change or a power-management
decision tick.

Events here are callback-based: the payload is a callable plus
positional arguments. Higher layers (services, dispatchers, clients)
define named helpers that schedule the right callbacks; keeping the
engine payload-agnostic is what makes the models modular.
"""

from __future__ import annotations

from typing import Any, Callable


class Event:
    """A single scheduled occurrence.

    Events order by ``(time, priority, seq)``. ``priority`` breaks ties
    between events scheduled for the same instant (lower runs first) and
    ``seq`` is a per-queue monotonically increasing counter, assigned by
    :meth:`EventQueue.push <repro.engine.event_queue.EventQueue.push>`,
    that makes the order of equal-time, equal-priority events
    deterministic (FIFO in scheduling order) — a property the validation
    tests rely on. Keeping the counter on the queue rather than on the
    class means two simulators produce identical sequence numbers no
    matter how many other simulators ran in the same process — required
    for cross-process determinism of the parallel experiment runner.

    The queue's binary heap holds ``(time, priority, seq, event)``
    tuples so it compares plain tuples in C instead of calling back into
    :meth:`__lt__`. The event is never reached by a comparison: ``seq``
    is unique within a queue, so ties break at the third slot. The
    tuple lives only in the heap — the event keeps no reference to it,
    so a popped or purged event is not part of a reference cycle and is
    freed by reference counting as soon as its last holder lets go.

    Cancellation is lazy: :meth:`cancel` marks the event and the event
    loop discards it when popped, which keeps the heap operations
    O(log n) without requiring heap surgery.

    Every schedule, fire-and-forget ones included, makes a fresh event;
    none is pooled or reused, so a handle stays valid for as long as
    its holder keeps it.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled",
                 "_queue")

    def __init__(
        self,
        time: float,
        fn: Callable[..., Any],
        args: tuple = (),
        priority: int = 0,
    ) -> None:
        self.time = float(time)
        self.priority = priority
        self.seq = 0  # assigned by EventQueue.push
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._queue = None  # owning EventQueue while pending, else None

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when it is popped.

        Routed through the owning queue (when there is one) so the
        queue's live-event accounting stays correct no matter whether
        handler code calls ``event.cancel()`` or ``queue.cancel(event)``.
        """
        queue = self._queue
        if queue is not None:
            queue.cancel(self)
        else:
            self.cancelled = True

    # Ordering ---------------------------------------------------------

    def __lt__(self, other: "Event") -> bool:
        # The heap never calls this (it compares its key tuples); kept
        # for sorting events outside a queue.
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        flag = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.9f} p={self.priority} {name}{flag}>"


# Priority bands. Lower value runs earlier at equal timestamps. The
# bands encode causality at an instant: a completion must be processed
# before the arrival it may unblock, and administrative changes (DVFS)
# apply before any work scheduled at the same instant.
PRIORITY_ADMIN = -10
PRIORITY_COMPLETION = 0
PRIORITY_ARRIVAL = 10
PRIORITY_MONITOR = 20
