"""Tests for backpressure onset detection."""

import pytest

from repro.analysis import bottleneck, cascade_report, culprit, detect_onsets
from repro.apps import two_tier
from repro.engine import Simulator
from repro.errors import ReproError
from repro.telemetry import Scraper, TimeSeries
from repro.workload import OpenLoopClient, StepPattern


def scraped_two_tier(arrivals, duration, *, seed=8, interval=0.02):
    """two_tier under open-loop *arrivals* until *duration*, NGINX and
    memcached scraped one instance per tier."""
    world = two_tier(seed=seed)
    instances = [world.instance("nginx"), world.instance("memcached")]
    scraper = Scraper(
        world.sim, interval=interval, stop_at=duration,
        tiers={i.name: [i] for i in instances},
    )
    client = OpenLoopClient(
        world.sim, world.dispatcher, arrivals=arrivals, stop_at=duration
    )
    scraper.start()
    client.start()
    world.sim.run(until=duration)
    return scraper


def overloaded_two_tier(qps_late=90_000, duration=0.4):
    """Calm start, then an overload that saturates NGINX (the 2-tier
    bottleneck) so its queues must light up first."""
    pattern = StepPattern([(0.0, 2_000), (0.15, qps_late)])
    return scraped_two_tier(pattern, duration, seed=21, interval=0.01)


def hand_fed_utilisation():
    """memcached0 is saturated only in a short final window, nginx0
    moderately busy throughout: a plain mean of the samples ranks
    memcached0 first, the time-weighted mean nginx0."""
    scraper = Scraper(Simulator(), interval=0.9)
    for tier, (full, partial) in [("memcached0", (0.0, 1.0)),
                                  ("nginx0", (0.4, 0.4))]:
        series = scraper.series[f"util/{tier}"] = TimeSeries(f"util/{tier}")
        series.append(0.9, full)      # one 0.9s interval
        series.append(1.0, partial)   # a 0.1s final partial window
    return scraper


class TestDetection:
    def test_overload_names_the_bottleneck_tier(self):
        monitor = overloaded_two_tier()
        assert culprit(monitor) == "nginx0"

    def test_onset_happens_after_the_load_step(self):
        monitor = overloaded_two_tier()
        onsets = detect_onsets(monitor)
        assert onsets
        assert onsets[0].onset_time >= 0.15
        assert onsets[0].peak_depth > onsets[0].baseline_depth * 4

    def test_queues_grow_past_saturation(self):
        # Steady load past saturation (75k QPS against ~62k capacity)
        # queues an order of magnitude deeper than a light 5k.
        light, heavy = (
            scraped_two_tier(qps, 0.2).series["depth/nginx0"].values.max()
            for qps in (5_000, 75_000)
        )
        assert heavy > 10 * max(1.0, light)

    def test_calm_system_reports_nothing(self):
        monitor = scraped_two_tier(5_000, 0.3, seed=21, interval=0.01)
        assert culprit(monitor) is None
        assert detect_onsets(monitor) == []
        assert cascade_report(monitor) == {}

    def test_cascade_report_maps_instances_to_times(self):
        monitor = overloaded_two_tier()
        report = cascade_report(monitor)
        assert "nginx0" in report
        assert report["nginx0"] >= 0.15

    def test_validation(self):
        monitor = overloaded_two_tier(duration=0.2)
        with pytest.raises(ReproError):
            detect_onsets(monitor, threshold_factor=1.0)
        with pytest.raises(ReproError):
            detect_onsets(monitor, baseline_fraction=0.0)


class TestBottleneck:
    def test_bottleneck_is_nginx_in_two_tier(self):
        # NGINX binds the 2-tier app (paper SSIV-A): under steady load
        # below saturation its utilisation leads memcached's.
        assert bottleneck(scraped_two_tier(40_000, 0.2)) == "nginx0"

    def test_bottleneck_mean_is_time_weighted(self):
        assert bottleneck(hand_fed_utilisation()) == "nginx0"
