"""Unit tests for the discrete-event loop."""

import pytest

from repro.engine import (
    GUARD_CHECK_EVERY,
    EngineProfiler,
    RunProgress,
    Simulator,
)
from repro.errors import SimulationAborted, SimulationError


class TestScheduling:
    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.5]
        assert sim.now == 1.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_handler_can_schedule_more_events(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(1.0, lambda: order.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "second"]
        assert sim.now == 2.0

    def test_args_passed_to_callback(self):
        sim = Simulator()
        got = []
        sim.schedule(0.0, got.append, 42)
        sim.run()
        assert got == [42]


class TestRunBounds:
    def test_until_is_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run(until=1.0)
        assert fired == [1]
        assert sim.now == 1.0
        assert len(sim.events) == 1

    def test_run_resumes_after_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run(until=1.5)
        assert sim.now == 1.5  # horizon reached with an event pending
        sim.run()
        assert fired == [1, 2]

    def test_until_advances_clock_with_no_events(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_max_events_bound(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run(max_events=3)
        assert sim.events_processed == 3
        assert len(sim.events) == 2

    def test_stop_from_handler(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]
        assert len(sim.events) == 1

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def bad():
            sim.run()

        sim.schedule(0.0, bad)
        with pytest.raises(SimulationError):
            sim.run()


class TestStopResume:
    """stop() with and without a horizon, and running again afterwards."""

    def test_stop_on_drain_fast_path_leaves_queue_intact(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i), fired.append, i)
        sim.schedule(4.5, sim.stop)
        sim.run()  # no bounds -> drain fast path
        assert fired == [0, 1, 2, 3, 4]
        assert len(sim.events) == 5
        assert sim.now == 4.5

    def test_run_resumes_after_stop(self):
        sim = Simulator()
        fired = []
        for i in range(6):
            sim.schedule(float(i), fired.append, i)
        sim.schedule(2.5, sim.stop)
        sim.run()
        processed_first = sim.events_processed
        clock_first = sim.now
        sim.run()  # stop request must not leak into the next run
        assert fired == list(range(6))
        # Clock monotonicity and events_processed continuity across runs.
        assert sim.now >= clock_first
        assert sim.now == 5.0
        assert sim.events_processed == processed_first + 3
        assert len(sim.events) == 0
        # A horizon reached on an empty queue leaves the clock at it.
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_stop_on_bounded_path_then_resume(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, fired.append, 2)
        sim.run(until=10.0)
        assert fired == [1]
        assert sim.now == 1.0  # the clock stays at the stopping event
        sim.run(until=10.0)
        assert fired == [1, 2]
        assert sim.now == 10.0

    def test_repeated_stop_resume_cycles_are_monotone(self):
        sim = Simulator()
        clocks = []
        for i in range(20):
            sim.schedule(float(i), lambda: None)
            sim.schedule(float(i), sim.stop)
        while sim.events:
            sim.run()
            clocks.append(sim.now)
        assert clocks == sorted(clocks)
        assert sim.events_processed == 40


def _self_rescheduling(sim, delay=0.0):
    """An event loop that never drains: each firing schedules the next."""

    def tick():
        sim.schedule(delay, tick)

    sim.schedule(0.0, tick)


class TestGuardrails:
    def test_wall_clock_budget_aborts_livelock(self):
        sim = Simulator()
        _self_rescheduling(sim)  # infinite zero-delay self-rescheduling
        with pytest.raises(SimulationAborted) as err:
            sim.run(wall_clock_budget=0.05)
        abort = err.value
        assert abort.reason.startswith("wall_clock_budget")
        assert abort.events_processed > 0
        assert abort.queue_depth >= 1
        assert abort.wall_clock >= 0.05
        assert abort.clock == sim.now

    def test_simulator_usable_after_abort(self):
        sim = Simulator()
        _self_rescheduling(sim, delay=1e-9)
        with pytest.raises(SimulationAborted):
            sim.run(wall_clock_budget=0.02)
        clock = sim.now
        # The queue is intact and a bounded run still works.
        sim.run(max_events=10)
        assert sim.now >= clock

    def test_max_live_events_aborts_unbounded_growth(self):
        sim = Simulator()

        def fork():  # each firing schedules two more: exponential queue
            sim.schedule(1.0, fork)
            sim.schedule(1.0, fork)

        sim.schedule(0.0, fork)
        with pytest.raises(SimulationAborted) as err:
            sim.run(max_events=10_000_000, wall_clock_budget=30.0,
                    max_live_events=50_000)
        assert "live events" in err.value.reason
        assert err.value.queue_depth > 50_000

    def test_watchdog_sees_progress_and_can_stop(self):
        sim = Simulator()
        _self_rescheduling(sim, delay=1e-9)
        seen = []

        def watchdog(progress):
            seen.append(progress)
            sim.stop()

        sim.run(watchdog=watchdog, watchdog_interval=0.0)
        assert len(seen) == 1
        assert isinstance(seen[0], RunProgress)
        assert seen[0].events_processed >= 0
        assert seen[0].queue_depth >= 1
        # stop() from the watchdog ended the run cleanly: no exception,
        # queue intact, clock where the watchdog left it.
        assert len(sim.events) >= 1

    def test_guarded_run_respects_until_and_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(float(i), fired.append, i)
        sim.run(until=2.0, wall_clock_budget=30.0)
        assert fired == [0, 1, 2]
        assert sim.now == 2.0
        sim.run(max_events=1, wall_clock_budget=30.0)
        assert fired == [0, 1, 2, 3]
        # The max_events budget and the guardrail cadence share one
        # countdown; a budget past a check boundary is still exact.
        _self_rescheduling(sim)
        before = sim.events_processed
        sim.run(max_events=GUARD_CHECK_EVERY + 5, wall_clock_budget=30.0)
        assert sim.events_processed - before == GUARD_CHECK_EVERY + 5

    def test_guarded_matches_unguarded_results(self):
        def drive(profiled=False, **kwargs):
            sim = Simulator(seed=3)
            if profiled:
                sim.profiler = EngineProfiler()
            order = []
            for i in range(3 * GUARD_CHECK_EVERY):
                sim.schedule(
                    float(sim.random.stream("t").random()), order.append, i
                )
            sim.run(**kwargs)
            return sim.now, order

        plain = drive()
        guarded = drive(wall_clock_budget=60.0, max_live_events=10**7)
        assert guarded == plain
        # A profiled run with a max_events budget stops at the same
        # event as an unprofiled one.
        budget = GUARD_CHECK_EVERY + 5
        stopped = drive(max_events=budget)
        assert len(stopped[1]) == budget
        assert drive(profiled=True, max_events=budget) == stopped


class TestDeterminism:
    def test_equal_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        order = []
        for i in range(10):
            sim.schedule(1.0, order.append, i)
        sim.run()
        assert order == list(range(10))

    def test_priority_orders_same_instant(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "arrival", priority=10)
        sim.schedule(1.0, order.append, "completion", priority=0)
        sim.schedule(1.0, order.append, "admin", priority=-10)
        sim.run()
        assert order == ["admin", "completion", "arrival"]

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, 1)
        sim.cancel(event)
        sim.run()
        assert fired == []


class TestScheduleTransient:
    def test_fires_like_schedule(self):
        sim = Simulator(seed=0)
        fired = []
        sim.schedule_transient(0.5, fired.append, "a")
        sim.schedule(0.25, fired.append, "b")
        sim.run()
        assert fired == ["b", "a"]
        assert sim.now == 0.5

    def test_interleaves_deterministically_with_regular_events(self):
        def run_once():
            sim = Simulator(seed=4)
            log = []
            rng = sim.random.stream("transient-test")
            for i in range(50):
                t = float(rng.random())
                sim.schedule_transient(t, log.append, ("t", round(t, 9)))
                sim.schedule(t, log.append, ("r", round(t, 9)))
            sim.run()
            return log

        assert run_once() == run_once()
