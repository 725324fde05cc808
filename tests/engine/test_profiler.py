"""Engine self-profiler: attribution, determinism, and the off switch."""

import pytest

from repro.engine import EngineProfiler, Simulator
from repro.errors import ReproError


class FakeClock:
    """Deterministic wall clock: each read advances by *step*."""

    def __init__(self, step=1.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        now = self.t
        self.t += self.step
        return now


class NamedComponent:
    def __init__(self, name):
        self.name = name
        self.fired = 0

    def handler(self):
        self.fired += 1


class TestDispatchAccounting:
    def test_books_count_and_wall_per_kind(self):
        profiler = EngineProfiler(clock=FakeClock(step=1.0))
        component = NamedComponent("svc0")
        for _ in range(3):
            profiler.dispatch(component.handler, ())
        assert component.fired == 3
        assert profiler.events == 3
        assert profiler.wall == pytest.approx(3.0)  # 1 fake second each
        (entry,) = profiler.hotspots()
        assert entry.key == "NamedComponent.handler"
        assert entry.count == 3
        assert entry.seconds == pytest.approx(3.0)
        assert entry.mean_us == pytest.approx(1e6)

    def test_sites_attribute_to_named_owner(self):
        profiler = EngineProfiler(clock=FakeClock())
        a, b = NamedComponent("a"), NamedComponent("b")
        profiler.dispatch(a.handler, ())
        profiler.dispatch(b.handler, ())
        profiler.dispatch(b.handler, ())
        by_key = {e.key: e.count for e in profiler.sites()}
        assert by_key == {"a": 1, "b": 2}

    def test_plain_functions_have_kind_but_no_site(self):
        profiler = EngineProfiler(clock=FakeClock())

        def free_handler():
            pass

        profiler.dispatch(free_handler, ())
        assert profiler.hotspots()[0].key.endswith("free_handler")
        assert profiler.sites() == []

    def test_raising_handler_still_booked(self):
        profiler = EngineProfiler(clock=FakeClock())

        def boom():
            raise ValueError("x")

        with pytest.raises(ValueError):
            profiler.dispatch(boom, ())
        assert profiler.events == 1
        assert profiler.hotspots()[0].count == 1

    def test_reset_clears_everything(self):
        profiler = EngineProfiler(clock=FakeClock())
        profiler.dispatch(NamedComponent("x").handler, ())
        profiler.reset()
        assert profiler.events == 0
        assert profiler.wall == 0.0
        assert profiler.summary()["hotspots"] == []

    def test_top_validation(self):
        profiler = EngineProfiler()
        with pytest.raises(ReproError):
            profiler.hotspots(top=0)
        with pytest.raises(ReproError):
            profiler.sites(top=0)


class TestSimulatorIntegration:
    @staticmethod
    def _chain_run(sim, n_events=500):
        order = []

        def chain():
            order.append(sim.now)
            if len(order) < n_events:
                sim.schedule(1e-6, chain)

        sim.schedule(0.0, chain)
        sim.run()
        return order

    def test_profiled_run_processes_identical_events(self):
        plain = Simulator(seed=1)
        plain_order = self._chain_run(plain)

        profiled = Simulator(seed=1)
        profiled.profiler = EngineProfiler()
        profiled_order = self._chain_run(profiled)

        assert profiled_order == plain_order
        assert profiled.events_processed == plain.events_processed
        assert profiled.now == plain.now
        assert profiled.profiler.events == profiled.events_processed

    def test_profiler_defaults_off(self):
        assert Simulator(seed=0).profiler is None

    def test_profiled_run_with_horizon_and_guardrails(self):
        # The profiled dispatch must also ride the guarded loop.
        sim = Simulator(seed=0)
        sim.profiler = EngineProfiler()
        self_calls = []

        def tick():
            self_calls.append(sim.now)
            sim.schedule(0.01, tick)

        sim.schedule(0.0, tick)
        sim.run(until=0.1, wall_clock_budget=60.0)
        assert sim.profiler.events == len(self_calls)
        assert sim.profiler.hotspots()[0].count == len(self_calls)

    def test_summary_shape(self):
        sim = Simulator(seed=0)
        sim.profiler = EngineProfiler()
        self._chain_run(sim, n_events=50)
        summary = sim.profiler.summary(top=5)
        assert set(summary) == {
            "events", "handler_wall_s", "events_per_sec", "hotspots", "sites"
        }
        assert summary["events"] == 50
        assert summary["hotspots"]
        for spot in summary["hotspots"]:
            assert set(spot) == {"key", "count", "seconds", "mean_us"}
