"""Sim-time telemetry scraping: periodic snapshots into named series.

All other telemetry in the repo is end-of-run aggregate — the
:class:`~repro.telemetry.metrics.MetricsRegistry` is collected once
after ``Simulator.run``, latency percentiles cover the whole window.
The :class:`Scraper` is the Prometheus-style counterpart: a
``PRIORITY_MONITOR``-scheduled loop (off by default, off the fast
path — it is just scheduled events) that snapshots, every *interval*
simulated seconds:

* per-tier **utilisation** (busy-core-time delta over the window),
  **queue depth**, and **in-flight** dispatches, each summed over the
  tier's instances — the series :mod:`repro.analysis.backpressure`
  reads to find a bottleneck tier and where a cascade started;
* the attached client's windowed **QPS** and **p50/p99**, plus its
  outstanding request count;
* every labelled counter and gauge of an attached registry, as
  cumulative series (rates fall out of a first difference).

Everything lands in named :class:`~repro.telemetry.timeseries.TimeSeries`
streams (``util/<tier>``, ``client/qps``, ``counter/<key>``, ...),
exported as a ``timeseries.json`` artifact
(:func:`write_timeline`/:func:`load_timeline`) and as Perfetto counter
tracks (:func:`repro.telemetry.export.to_perfetto` with *counters*).
``repro analyze --timeline`` renders the artifact back into tables
(:mod:`repro.analysis.timeline`).

Scraping never changes simulation results: samples only *read* model
state and draw no randomness, so relative ordering between model
events is preserved (asserted by ``tests/telemetry/test_scrape.py``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional

from ..engine import PRIORITY_MONITOR, Simulator
from ..errors import ReproError
from .metrics import MetricsRegistry, _render_key
from .timeseries import TimeSeries

__all__ = [
    "TIMELINE_SCHEMA",
    "Scraper",
    "load_timeline",
    "scrape_tiers",
    "series_from_json",
    "series_to_json",
    "timeline_payload",
    "write_timeline",
]

#: Schema tag stamped into every ``timeseries.json`` artifact so the
#: loader can reject files that merely share the extension.
TIMELINE_SCHEMA = "repro.timeline/1"


def scrape_tiers(deployment) -> Dict[str, List[Any]]:
    """The default tier grouping for a deployment: one tier per
    service (all its instances aggregated) plus one per netproc
    instance (named after the instance, so per-machine soft_irq load
    stays visible)."""
    tiers: Dict[str, List[Any]] = {}
    for service in deployment.services:
        tiers[service] = list(deployment.instances(service))
    for proc in deployment.netprocs.values():
        tiers[proc.name] = [proc]
    return tiers


class Scraper:
    """Periodic sim-time sampler feeding named time series.

    *tiers* maps tier name -> instances sampled as one aggregate
    (:func:`scrape_tiers` builds the default grouping); *client* is an
    optional :class:`~repro.workload.OpenLoopClient`; *registry* an
    optional :class:`~repro.telemetry.metrics.MetricsRegistry` whose
    counters/gauges are snapshotted cumulatively each tick. All three
    are optional so a shard can scrape only the tiers it owns.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        interval: float,
        tiers: Optional[Mapping[str, Iterable[Any]]] = None,
        client=None,
        registry: Optional[MetricsRegistry] = None,
        stop_at: Optional[float] = None,
    ) -> None:
        if interval <= 0:
            raise ReproError(
                f"scrape interval must be > 0, got {interval!r}"
            )
        self.sim = sim
        self.interval = float(interval)
        self.stop_at = stop_at
        self.client = client
        self.registry = registry
        self._tiers: Dict[str, List[Any]] = {
            name: list(instances)
            for name, instances in (tiers or {}).items()
        }
        self.series: Dict[str, TimeSeries] = {}
        self._last_busy: Dict[str, float] = {}
        self._last_time = 0.0
        self._started = False
        #: Tick k is due at ``start + k * interval`` — computed, never
        #: accumulated, so float drift cannot shift the cadence.
        self._origin = 0.0
        self._ticks = 0  # ticks scheduled so far

    # Series plumbing --------------------------------------------------

    def _series(self, name: str) -> TimeSeries:
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = TimeSeries(name)
        return series

    def _tier_busy(self, instances: List[Any]) -> float:
        return sum(inst.cores.busy_time(inst.sim.now) for inst in instances)

    # Lifecycle --------------------------------------------------------

    def start(self) -> "Scraper":
        if self._started:
            raise ReproError("scraper started twice")
        self._started = True
        self._last_time = self._origin = self.sim.now
        for name, instances in self._tiers.items():
            self._last_busy[name] = self._tier_busy(instances)
        self._tick_at(self._origin + self.interval)
        return self

    def _tick_at(self, t: float) -> None:
        self._ticks += 1
        self.sim.schedule_at(t, self._sample, priority=PRIORITY_MONITOR)

    def _sample(self) -> None:
        now = self.sim.now
        window = now - self._last_time
        for name, instances in self._tiers.items():
            busy = self._tier_busy(instances)
            delta = busy - self._last_busy[name]
            self._last_busy[name] = busy
            cores = sum(len(inst.cores) for inst in instances)
            util = (
                delta / (window * cores) if window > 0 and cores else 0.0
            )
            # Float rounding in busy-time bookkeeping can land a hair
            # outside [0, 1]; a utilisation sample never should.
            util = min(1.0, max(0.0, util))
            self._series(f"util/{name}").append(now, util)
            self._series(f"depth/{name}").append(
                now, float(sum(inst.queued_jobs for inst in instances))
            )
            self._series(f"inflight/{name}").append(
                now, float(sum(inst.pending_dispatch for inst in instances))
            )
        client = self.client
        if client is not None:
            recorder = client.latencies
            completed = recorder.count(since=self._last_time, until=now)
            qps = completed / window if window > 0 else 0.0
            self._series("client/qps").append(now, qps)
            if completed:
                self._series("client/p50").append(
                    now,
                    recorder.percentile(50, since=self._last_time, until=now),
                )
                self._series("client/p99").append(
                    now,
                    recorder.percentile(99, since=self._last_time, until=now),
                )
            self._series("client/inflight").append(
                now,
                float(client.requests_sent - client.requests_completed),
            )
        registry = self.registry
        if registry is not None:
            for (name, labels), counter in registry._counters.items():
                self._series(
                    f"counter/{_render_key(name, labels)}"
                ).append(now, counter.value)
            for (name, labels), gauge in registry._gauges.items():
                self._series(
                    f"gauge/{_render_key(name, labels)}"
                ).append(now, gauge.value)
        self._last_time = now
        due = self._origin + (self._ticks + 1) * self.interval
        if self.stop_at is None:
            # No horizon: keep sampling while anything else is live,
            # but stand down once this tick is the only pending event —
            # a drain-style run must still finish (the SLOMonitor
            # contract).
            if len(self.sim.events) > 0:
                self._tick_at(due)
        elif due <= self.stop_at:
            self._tick_at(due)
        elif now < self.stop_at:
            # Close out the final partial window instead of dropping it:
            # a stop_at that is not a multiple of the interval would
            # otherwise lose the last slice of the run.
            self._tick_at(self.stop_at)

    # Export -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, List[float]]]:
        """Every series as plain JSON-serialisable data, sorted by
        name."""
        return {
            name: series_to_json(self.series[name])
            for name in sorted(self.series)
        }


# Timeline artifact -----------------------------------------------------


def series_to_json(series: TimeSeries) -> Dict[str, List[float]]:
    """One series -> ``{"times": [...], "values": [...]}``."""
    return {
        "times": [float(t) for t in series.times],
        "values": [float(v) for v in series.values],
    }


def series_from_json(name: str, data: Mapping[str, Any]) -> TimeSeries:
    """Rebuild a :class:`TimeSeries` from :func:`series_to_json`
    output."""
    series = TimeSeries(name)
    for t, v in zip(data["times"], data["values"]):
        series.append(t, v)
    return series


def timeline_payload(
    series: Mapping[str, Mapping[str, Any]],
    *,
    interval: float,
    meta: Optional[Mapping[str, Any]] = None,
    shard_runtime: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the ``timeseries.json`` document.

    *series* is :meth:`Scraper.snapshot`-shaped data; *meta* carries
    run identity (qps, duration, warmup, shards); *shard_runtime* is a
    :meth:`~repro.shard.sync.ConservativeCoordinator.runtime_report`
    for sharded runs (straggler ranking, per-shard wall accounting).
    """
    payload: Dict[str, Any] = {
        "schema": TIMELINE_SCHEMA,
        "interval": float(interval),
        "series": {name: dict(series[name]) for name in sorted(series)},
    }
    if meta:
        payload["meta"] = dict(meta)
    if shard_runtime:
        payload["shard_runtime"] = dict(shard_runtime)
    return payload


def write_timeline(path, payload: Mapping[str, Any]) -> None:
    """Write a :func:`timeline_payload` document as JSON to *path*."""
    import json

    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_timeline(path) -> Dict[str, Any]:
    """Load and validate one ``timeseries.json`` artifact."""
    import json

    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("schema") != TIMELINE_SCHEMA:
        raise ReproError(
            f"{str(path)!r} is not a repro timeline artifact "
            f"(expected schema {TIMELINE_SCHEMA!r})"
        )
    return payload
