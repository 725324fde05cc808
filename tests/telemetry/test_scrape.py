"""Sim-time scrape loop: sampling, export round-trips, and the
never-changes-results contract."""

import dataclasses

import pytest

from repro.apps import two_tier
from repro.engine import EngineProfiler, Simulator
from repro.errors import ReproError
from repro.experiments.loadsweep import run_world
from repro.experiments.options import RunOptions
from repro.telemetry import (
    TIMELINE_SCHEMA,
    MetricsRegistry,
    Scraper,
    counters_from_perfetto,
    load_timeline,
    scrape_tiers,
    series_from_json,
    series_to_json,
    timeline_payload,
    to_perfetto,
    write_timeline,
)

from ..vanilla import vanilla_point

QPS = 2000.0


def _counter_tick_times(interval, stop_at):
    """Sample times of a registry counter scraped until *stop_at*."""
    sim = Simulator()
    reg = MetricsRegistry()
    reg.counter("n").inc()
    scraper = Scraper(
        sim, interval=interval, registry=reg, stop_at=stop_at
    ).start()
    sim.run(until=0.2)
    return scraper.series["counter/n"].times.tolist()


class TestScraperLifecycle:
    def test_interval_must_be_positive(self):
        sim = Simulator()
        with pytest.raises(ReproError):
            Scraper(sim, interval=0.0)
        with pytest.raises(ReproError):
            Scraper(sim, interval=-1.0)

    def test_start_twice_raises(self):
        scraper = Scraper(Simulator(), interval=0.1)
        scraper.start()
        with pytest.raises(ReproError):
            scraper.start()

    def test_tick_cadence_includes_partial_closeout(self):
        # stop_at is not a multiple of the interval: the loop must add
        # one final sample at exactly stop_at instead of dropping the
        # partial window.
        assert _counter_tick_times(0.025, 0.09) == pytest.approx(
            [0.025, 0.05, 0.075, 0.09]
        )

    def test_tick_cadence_does_not_drift(self):
        # Tick k lands at exactly k * interval: accumulating the
        # interval put the 10th tick at 0.19999999999999998 and added
        # an 11th over a 2.8e-17 s window.
        assert _counter_tick_times(0.02, 0.2) == [
            k * 0.02 for k in range(1, 11)
        ]

    def test_registry_series_are_cumulative(self):
        sim = Simulator()
        reg = MetricsRegistry()
        counter = reg.counter("done", outcome="ok")
        sim.schedule(0.01, lambda: counter.inc(2))
        sim.schedule(0.11, lambda: counter.inc(3))
        scraper = Scraper(
            sim, interval=0.1, registry=reg, stop_at=0.2
        ).start()
        sim.run(until=0.2)
        series = scraper.series['counter/done{outcome="ok"}']
        assert series.values.tolist() == [2.0, 5.0]

    def test_drain_run_terminates_without_stop_at(self):
        # With no horizon the scrape tick must stand down once it is
        # the only pending event, or a drain-style run never finishes.
        sim = Simulator()
        reg = MetricsRegistry()
        reg.gauge("g").set(1.0)
        sim.schedule(0.32, lambda: None)
        scraper = Scraper(sim, interval=0.1, registry=reg).start()
        sim.run(max_events=10_000)
        assert len(sim.events) == 0
        # Ticks at 0.1/0.2/0.3 see the model event still pending; the
        # 0.4 tick finds the queue empty and does not reschedule.
        assert scraper.series["gauge/g"].times.tolist() == pytest.approx(
            [0.1, 0.2, 0.3, 0.4]
        )

    def test_scrape_tiers_covers_services_and_netprocs(self):
        world = two_tier(seed=1)
        tiers = scrape_tiers(world.deployment)
        for service in world.deployment.services:
            assert service in tiers
            assert tiers[service]
        for proc in world.deployment.netprocs.values():
            assert tiers[proc.name] == [proc]


def _scraped_series(qps, interval):
    """Scrape series of a 0.2s two_tier load point at *qps*."""
    return run_world(
        two_tier, qps, 8, RunOptions(scrape_interval=interval), duration=0.2
    ).root["scrape"]["series"]


class TestTierSampling:
    def test_samples_recorded_at_interval(self):
        depth = _scraped_series(5_000, 0.02)["depth/nginx"]
        assert 8 <= len(depth["times"]) <= 11

    def test_final_partial_window_is_sampled(self):
        # stop_at=0.2 with interval=0.03 leaves a 0.02s tail window;
        # it must be sampled at exactly stop_at, not dropped.
        assert _counter_tick_times(0.03, 0.2) == pytest.approx(
            [0.03, 0.06, 0.09, 0.12, 0.15, 0.18, 0.2]
        )

    def test_exact_multiple_stop_has_no_extra_sample(self):
        # stop_at an exact multiple of the interval: the last regular
        # sample already lands on stop_at, so no partial window exists.
        assert _counter_tick_times(0.05, 0.2) == pytest.approx(
            [0.05, 0.1, 0.15, 0.2]
        )

    def test_idle_system_shows_zero_utilisation(self):
        world = two_tier(seed=8)
        tiers = scrape_tiers(world.deployment)
        scraper = Scraper(
            world.sim, interval=0.05, tiers=tiers, stop_at=0.2
        ).start()
        world.sim.run(until=0.2)
        for tier in tiers:
            assert scraper.series[f"util/{tier}"].values.tolist() == [0.0] * 4

    def test_utilisation_tracks_load(self):
        util = _scraped_series(30_000, 0.02)["util/nginx"]["values"]
        # ~30k x ~135us / 8 cores ~ 0.5.
        assert 0.3 < sum(util[2:]) / len(util[2:]) < 0.75

    def test_utilisation_clamped_to_unit_interval(self):
        # Past saturation (75k QPS against ~62k capacity, with a 0.02s
        # final window), where busy-time rounding could stray.
        for name, data in _scraped_series(75_000, 0.03).items():
            if name.startswith("util/"):
                assert all(0.0 <= v <= 1.0 for v in data["values"])


def _profiled_two_tier(seed, **kwargs):
    world = two_tier(seed=seed, **kwargs)
    world.sim.profiler = EngineProfiler()
    return world


class TestScrapeNeverChangesResults:
    # Scraping, trace sampling (on its own RNG stream) and the engine
    # profiler only read state: every measured field must equal the
    # plain point's, not merely be close.
    @pytest.mark.parametrize("build, observe", [
        (two_tier, {"scrape_interval": 0.01}),
        (two_tier, {"trace_sample": 0.5}),
        (_profiled_two_tier, {}),
    ], ids=["scraped", "traced", "profiled"])
    def test_vanilla_outcome_identity(self, build, observe, tmp_path):
        if "trace_sample" in observe:
            # Sampled tracing rides a trace export directory.
            observe = dict(observe, trace_dir=tmp_path)
        off = vanilla_point(two_tier, QPS, 0.05, 0.01, 7)
        on = vanilla_point(build, QPS, 0.05, 0.01, 7,
                           RunOptions(**observe))
        assert off.timeline is None
        assert (on.timeline is not None) == ("scrape_interval" in observe)
        assert on == dataclasses.replace(off, timeline=on.timeline)

    def test_scraped_point_carries_expected_series(self):
        on = vanilla_point(
            two_tier, QPS, 0.05, 0.01, 7, RunOptions(scrape_interval=0.01)
        )
        series = on.timeline["series"]
        assert "client/qps" in series and "client/inflight" in series
        world = two_tier(seed=7)
        for service in world.deployment.services:
            assert f"util/{service}" in series
            assert f"depth/{service}" in series
        for data in series.values():
            assert len(data["times"]) == len(data["values"]) > 0
        # Utilisation samples are fractions of cores busy.
        for name, data in series.items():
            if name.startswith("util/"):
                assert all(0.0 <= v <= 1.0 for v in data["values"])


class TestTimelineArtifact:
    def _payload(self):
        sim = Simulator()
        reg = MetricsRegistry()
        reg.counter("n").inc()
        scraper = Scraper(
            sim, interval=0.05, registry=reg, stop_at=0.2
        ).start()
        sim.run(until=0.2)
        return timeline_payload(
            scraper.snapshot(), interval=0.05, meta={"qps": 100.0}
        )

    def test_write_load_roundtrip(self, tmp_path):
        payload = self._payload()
        path = tmp_path / "timeseries.json"
        write_timeline(path, payload)
        assert load_timeline(path) == payload
        assert payload["schema"] == TIMELINE_SCHEMA

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "timeseries.json"
        path.write_text('{"series": {}}')
        with pytest.raises(ReproError, match="schema"):
            load_timeline(path)
        path.write_text("[1, 2, 3]")
        with pytest.raises(ReproError):
            load_timeline(path)

    def test_series_json_roundtrip(self):
        payload = self._payload()
        for name, data in payload["series"].items():
            series = series_from_json(name, data)
            assert series_to_json(series) == data

    def test_perfetto_counter_roundtrip_is_bit_exact(self):
        snapshot = self._payload()["series"]
        doc = to_perfetto([], counters=snapshot)
        tracks = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert tracks and all(e["pid"] == 0 for e in tracks)
        assert counters_from_perfetto(doc) == snapshot

    def test_counters_from_perfetto_rejects_garbage(self):
        with pytest.raises(ReproError):
            counters_from_perfetto({"not": "a trace"})
