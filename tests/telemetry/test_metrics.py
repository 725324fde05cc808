"""Unit tests for the metrics registry and its wiring helpers."""

import json

import pytest

from repro.errors import ReproError
from repro.telemetry import Counter, Gauge, Histogram, MetricsRegistry


class TestInstruments:
    def test_counter_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)
        with pytest.raises(ReproError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(5.0)
        gauge.inc()
        gauge.dec(3.0)
        assert gauge.value == pytest.approx(3.0)

    def test_histogram_buckets_and_mean(self):
        hist = Histogram(buckets=[1.0, 2.0, 4.0])
        for v in [0.5, 1.5, 3.0, 100.0]:
            hist.observe(v)
        assert hist.count == 4
        assert hist.counts == [1, 1, 1, 1]  # last is the +inf overflow
        assert hist.mean == pytest.approx(26.25)

    def test_histogram_quantile_interpolates(self):
        hist = Histogram(buckets=[1.0, 2.0])
        for _ in range(100):
            hist.observe(1.5)
        q = hist.quantile(0.5)
        assert 1.0 <= q <= 2.0
        with pytest.raises(ReproError):
            hist.quantile(1.5)

    def test_empty_histogram_queries_raise(self):
        hist = Histogram()
        with pytest.raises(ReproError):
            hist.mean
        with pytest.raises(ReproError):
            hist.quantile(0.5)

    def test_bad_buckets_rejected(self):
        with pytest.raises(ReproError):
            Histogram(buckets=[2.0, 1.0])
        with pytest.raises(ReproError):
            Histogram(buckets=[])


class TestRegistry:
    def test_get_or_create_by_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("hits", service="web")
        b = reg.counter("hits", service="web")
        c = reg.counter("hits", service="db")
        assert a is b and a is not c

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        a = reg.counter("edge", upstream="x", service="y")
        b = reg.counter("edge", service="y", upstream="x")
        assert a is b

    def test_collect_renders_prometheus_style_keys(self):
        reg = MetricsRegistry()
        reg.counter("requests_total", outcome="ok").inc(3)
        reg.gauge("depth").set(7)
        reg.histogram("lat", buckets=[0.1, 1.0]).observe(0.5)
        out = reg.collect()
        assert out["counters"]['requests_total{outcome="ok"}'] == 3
        assert out["gauges"]["depth"] == 7
        hist = out["histograms"]["lat"]
        assert hist["count"] == 1
        assert hist["buckets"] == {"0.1": 0, "1": 1, "+inf": 0}

    def test_write_is_valid_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("n").inc()
        path = tmp_path / "metrics.json"
        reg.write(path)
        assert json.loads(path.read_text())["counters"]["n"] == 1.0

    def test_label_values_escaped_per_exposition_format(self, tmp_path):
        # Regression: a quote, backslash, or newline in a label value
        # was rendered raw, producing keys a Prometheus-style parser
        # cannot read back (and making distinct values collide).
        reg = MetricsRegistry()
        reg.counter("hits", path='say "hi"').inc()
        reg.counter("hits", path="a\\b").inc(2)
        reg.counter("hits", path="line\nbreak").inc(3)
        out = reg.collect()["counters"]
        assert out['hits{path="say \\"hi\\""}'] == 1
        assert out['hits{path="a\\\\b"}'] == 2
        assert out['hits{path="line\\nbreak"}'] == 3
        # No raw newline or unescaped quote survives into any key, so
        # the written artifact stays line-parseable.
        path = tmp_path / "metrics.json"
        reg.write(path)
        for key in json.loads(path.read_text())["counters"]:
            assert "\n" not in key

    def test_escaping_prevents_label_injection(self):
        # Pre-fix, the crafted value `x",v="y` rendered byte-identical
        # to the honest two-label series {a="x", v="y"} — two distinct
        # series collapsing onto one collected key, the second silently
        # overwriting the first.
        reg = MetricsRegistry()
        reg.counter("c", a='x",v="y').inc()
        reg.counter("c", a="x", v="y").inc(2)
        out = reg.collect()["counters"]
        assert len(out) == 2
        assert out['c{a="x\\",v=\\"y"}'] == 1
        assert out['c{a="x",v="y"}'] == 2


class TestWorldWiring:
    def build(self):
        from repro.apps import two_tier

        world = two_tier(seed=3)
        reg = MetricsRegistry()
        reg.instrument_world(world)
        return world, reg

    def test_instrumented_world_populates_all_instruments(self):
        from repro.service import Request

        world, reg = self.build()
        for i in range(20):
            world.dispatcher.submit(Request(created_at=i * 1e-3))
        world.sim.run()
        reg.sample_deployment_gauges(world.deployment, world.sim.now)
        out = reg.collect()
        assert out["counters"]['requests_total{outcome="ok"}'] == 20
        # Edge traffic: client->web and web->memcached.
        edges = [k for k in out["counters"] if k.startswith("edge_requests")]
        assert len(edges) >= 2
        picks = [k for k in out["counters"] if k.startswith("lb_picks")]
        assert picks and sum(out["counters"][k] for k in picks) > 0
        lat = out["histograms"]["request_latency_seconds"]
        assert lat["count"] == 20
        stage = [k for k in out["histograms"] if k.startswith("stage_cost")]
        assert stage
        jobs = [k for k in out["counters"] if k.startswith("jobs_completed")]
        assert jobs
        gauges = [k for k in out["gauges"] if k.startswith("core_utilization")]
        assert gauges

    def test_unmetered_world_records_nothing(self):
        from repro.apps import two_tier
        from repro.service import Request

        world = two_tier(seed=3)
        world.dispatcher.submit(Request(0.0))
        world.sim.run()
        assert world.dispatcher.tracer is None
        assert world.dispatcher.trace is False
        assert world.dispatcher.metrics is None
        for instance in world.deployment.all_instances:
            assert instance.metrics is None
