"""The discrete-event simulation loop.

Paper SSIII-A / Fig. 2: the queue manager repeatedly pops the earliest
event, advances the clock to its timestamp, and fires its handler; the
handler computes execution times via the microservice models and inserts
causally dependent events back into the queue. Simulation completes when
there are no more outstanding events (or an explicit horizon/stop
condition is reached).

Time is measured in **seconds** as a float throughout the library;
helpers in :mod:`repro.telemetry` convert to ms/us for reporting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..errors import SimulationAborted, SimulationError
from .event import Event, acquire_event, release_event
from .event_queue import EventQueue
from .random import RandomStreams

#: How many events the guarded loop processes between guardrail checks.
#: Checks cost a clock read plus a couple of comparisons, so at the
#: default cadence their overhead is well under 1% of event throughput
#: while still bounding a runaway loop to a fraction of a second.
GUARD_CHECK_EVERY = 2048


@dataclass
class RunProgress:
    """Snapshot handed to a :meth:`Simulator.run` watchdog callback."""

    clock: float  #: simulated seconds
    events_processed: int  #: lifetime events (continues across run()s)
    queue_depth: int  #: live events still pending
    wall_clock: float  #: real seconds spent in the current run()


class Simulator:
    """Owns the clock, the event queue, and the random streams.

    All model components hold a reference to their simulator and use
    :meth:`schedule` / :meth:`schedule_at` to insert future work.
    """

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.events = EventQueue()
        self.random = RandomStreams(seed)
        self.events_processed: int = 0
        self._running = False
        self._stop_requested = False
        #: Opt-in self-profiling: assign an
        #: :class:`~repro.engine.profiler.EngineProfiler` before
        #: :meth:`run` to time every event handler. ``None`` (the
        #: default) keeps the hot loops completely unmodified — the
        #: check happens once per ``run()``, not per event.
        self.profiler = None

    # Scheduling -------------------------------------------------------

    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` to run *delay* seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay!r})")
        return self.events.push(Event(self.now + delay, fn, args, priority))

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation *time*."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, clock already at {self.now!r}"
            )
        return self.events.push(Event(time, fn, args, priority))

    def schedule_transient(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Schedule fire-and-forget work on the recycled-event slab.

        Semantically identical to :meth:`schedule` but the event object
        comes from (and returns to) a module free list: the run loop
        recycles it the instant its callback returns. The contract in
        exchange for the cheaper allocation: the caller must **never
        cancel** the event nor retain a handle to it — which is why
        nothing is returned. Reserved for the per-event hot paths
        (client arrival ticks, wire deliveries) that are fired exactly
        once by construction.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay!r})")
        self.events.push(acquire_event(self.now + delay, fn, args, priority))

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event."""
        self.events.cancel(event)

    # Main loop --------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        *,
        wall_clock_budget: Optional[float] = None,
        max_live_events: Optional[int] = None,
        watchdog: Optional[Callable[[RunProgress], None]] = None,
        watchdog_interval: float = 1.0,
    ) -> float:
        """Process events until the queue drains or a bound is hit.

        ``until`` is an inclusive time horizon: events with timestamp
        exactly equal to ``until`` still run, later ones stay queued and
        the clock is left at ``until``. Returns the final clock value.

        Guardrails (all opt-in, checked every ``GUARD_CHECK_EVERY``
        events so the unguarded hot loops stay untouched):

        * ``wall_clock_budget`` — abort with
          :class:`~repro.errors.SimulationAborted` once the run has
          consumed this many *real* seconds (catches livelocks such as
          an event loop that keeps rescheduling itself).
        * ``max_live_events`` — abort when the pending-event queue
          exceeds this depth (catches unbounded event growth before it
          exhausts memory).
        * ``watchdog`` — called with a :class:`RunProgress` snapshot
          roughly every ``watchdog_interval`` wall-clock seconds; it may
          log progress, raise, or call :meth:`stop` to end the run
          cleanly.

        An abort raises :class:`~repro.errors.SimulationAborted`
        carrying partial stats (clock, events processed, queue depth,
        wall clock); the simulator itself stays consistent — queued
        events remain queued and ``run()`` may be called again.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stop_requested = False
        guarded = (
            wall_clock_budget is not None
            or max_live_events is not None
            or watchdog is not None
        )
        # Hot loop: hoist bound methods out of the loop — at hundreds of
        # thousands of events per second the attribute lookups dominate.
        events = self.events
        pop = events.pop
        try:
            if guarded or self.profiler is not None:
                return self._run_guarded(
                    until, max_events, guarded, wall_clock_budget,
                    max_live_events, watchdog, watchdog_interval,
                )
            if until is None and max_events is None:
                # Drain fast path: no horizon to compare against, so pop
                # directly instead of peeking first (halves the number
                # of heap-top inspections per event).
                while not self._stop_requested:
                    event = pop()
                    if event is None:
                        break
                    next_time = event.time
                    if next_time < self.now:
                        raise SimulationError(
                            f"event queue yielded a past event: {event!r} "
                            f"at t={self.now}"
                        )
                    self.now = next_time
                    event.fn(*event.args)
                    if event.transient:
                        release_event(event)
                    self.events_processed += 1
            else:
                peek_time = events.peek_time
                processed_this_run = 0
                while not self._stop_requested:
                    if max_events is not None and processed_this_run >= max_events:
                        break
                    next_time = peek_time()
                    if next_time is None:
                        break
                    if until is not None and next_time > until:
                        self.now = max(self.now, until)
                        break
                    event = pop()
                    assert event is not None
                    if next_time < self.now:
                        raise SimulationError(
                            f"event queue yielded a past event: {event!r} "
                            f"at t={self.now}"
                        )
                    self.now = next_time
                    event.fn(*event.args)
                    if event.transient:
                        release_event(event)
                    self.events_processed += 1
                    processed_this_run += 1
        finally:
            self._running = False
        if until is not None and not self.events:
            self.now = max(self.now, until)
        return self.now

    def _run_guarded(
        self,
        until: Optional[float],
        max_events: Optional[int],
        guarded: bool,
        wall_clock_budget: Optional[float],
        max_live_events: Optional[int],
        watchdog: Optional[Callable[[RunProgress], None]],
        watchdog_interval: float,
    ) -> float:
        """The instrumented loop: every handler routed through the
        attached profiler (if any), plus — when *guarded* — guardrail
        checks every ``GUARD_CHECK_EVERY`` events (and once up front, so
        a tiny budget still trips on a pathological first event batch).
        Kept apart from the drain and horizon loops so uninstrumented
        runs stay branch-free."""
        events = self.events
        pop = events.pop
        peek_time = events.peek_time
        profiler = self.profiler
        started = time.monotonic()
        next_watchdog = started + watchdog_interval
        processed_this_run = 0
        countdown = 1  # check once up front, then every GUARD_CHECK_EVERY
        while not self._stop_requested:
            countdown -= 1
            if guarded and countdown <= 0:
                countdown = GUARD_CHECK_EVERY
                wall = time.monotonic() - started
                if (wall_clock_budget is not None
                        and wall > wall_clock_budget):
                    self._abort("wall_clock_budget exceeded", wall)
                if (max_live_events is not None
                        and len(events) > max_live_events):
                    self._abort(
                        f"live events exceeded {max_live_events}", wall
                    )
                if watchdog is not None and started + wall >= next_watchdog:
                    next_watchdog = started + wall + watchdog_interval
                    watchdog(RunProgress(
                        clock=self.now,
                        events_processed=self.events_processed,
                        queue_depth=len(events),
                        wall_clock=wall,
                    ))
                    if self._stop_requested:
                        break
            if max_events is not None and processed_this_run >= max_events:
                break
            next_time = peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.now = max(self.now, until)
                break
            event = pop()
            assert event is not None
            if next_time < self.now:
                raise SimulationError(
                    f"event queue yielded a past event: {event!r} "
                    f"at t={self.now}"
                )
            self.now = next_time
            if profiler is None:
                event.fn(*event.args)
            else:
                profiler.dispatch(event.fn, event.args)
            if event.transient:
                release_event(event)
            self.events_processed += 1
            processed_this_run += 1
        if until is not None and not events:
            self.now = max(self.now, until)
        return self.now

    def _abort(self, reason: str, wall: float) -> None:
        raise SimulationAborted(
            reason,
            clock=self.now,
            events_processed=self.events_processed,
            queue_depth=len(self.events),
            wall_clock=wall,
        )

    def stop(self) -> None:
        """Request the main loop to exit after the current event.

        Safe to call from inside an event handler (e.g. a telemetry
        monitor that detected convergence).
        """
        self._stop_requested = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Simulator t={self.now:.6f}s pending={len(self.events)} "
            f"processed={self.events_processed}>"
        )
