"""Periodic in-simulation monitoring of microservice instances.

A :class:`ServiceMonitor` samples queue depth and core utilisation of a
set of instances at a fixed interval — the observability layer one
needs to locate backpressure in a multi-tier graph (which tier's queues
grow first as load approaches saturation).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from ..engine import PRIORITY_MONITOR, Simulator
from ..errors import ReproError
from ..service import Microservice
from .metrics import MetricsRegistry
from .timeseries import TimeSeries


class ServiceMonitor:
    """Samples per-instance queue depth and utilisation.

    With a :class:`~repro.telemetry.metrics.MetricsRegistry` attached
    via *registry*, every sample also lands in
    ``monitor_queue_depth`` / ``monitor_utilization`` gauges (labelled
    by instance), so the latest monitor view shows up in
    ``registry.collect()`` alongside the dispatcher counters.
    """

    def __init__(
        self,
        sim: Simulator,
        instances: Iterable[Microservice],
        interval: float = 0.01,
        stop_at: Optional[float] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if interval <= 0:
            raise ReproError(f"interval must be > 0, got {interval!r}")
        self.sim = sim
        self.registry = registry
        self.instances: List[Microservice] = list(instances)
        if not self.instances:
            raise ReproError("monitor needs at least one instance")
        self.interval = float(interval)
        self.stop_at = stop_at
        self.queue_depth: Dict[str, TimeSeries] = {
            inst.name: TimeSeries(f"depth/{inst.name}") for inst in self.instances
        }
        self.utilization: Dict[str, TimeSeries] = {
            inst.name: TimeSeries(f"util/{inst.name}") for inst in self.instances
        }
        self._last_busy: Dict[str, float] = {
            inst.name: 0.0 for inst in self.instances
        }
        self._last_time = 0.0
        self._start_time = 0.0
        self._started = False

    def start(self) -> "ServiceMonitor":
        if self._started:
            raise ReproError("monitor started twice")
        self._started = True
        self._last_time = self.sim.now
        self._start_time = self.sim.now
        for inst in self.instances:
            self._last_busy[inst.name] = inst.cores.busy_time(inst.sim.now)
        self.sim.schedule(self.interval, self._sample, priority=PRIORITY_MONITOR)
        return self

    def _sample(self) -> None:
        now = self.sim.now
        window = now - self._last_time
        for inst in self.instances:
            self.queue_depth[inst.name].append(now, inst.queued_jobs)
            busy = inst.cores.busy_time(inst.sim.now)
            delta = busy - self._last_busy[inst.name]
            util = delta / (window * len(inst.cores)) if window > 0 else 0.0
            # Float rounding in the busy-time bookkeeping can land a
            # hair outside [0, 1]; a utilisation sample never should.
            util = min(1.0, max(0.0, util))
            self.utilization[inst.name].append(now, util)
            self._last_busy[inst.name] = busy
            if self.registry is not None:
                self.registry.gauge(
                    "monitor_queue_depth", instance=inst.name
                ).set(inst.queued_jobs)
                self.registry.gauge(
                    "monitor_utilization", instance=inst.name
                ).set(util)
        self._last_time = now
        if self.stop_at is None or now + self.interval <= self.stop_at:
            self.sim.schedule(
                self.interval, self._sample, priority=PRIORITY_MONITOR
            )
        elif now < self.stop_at:
            # Close out the final partial window instead of dropping
            # it: without this, a stop_at that is not an exact multiple
            # of the interval silently loses the last slice of the run.
            self.sim.schedule(
                self.stop_at - now, self._sample, priority=PRIORITY_MONITOR
            )

    def peak_depth(self, name: str) -> float:
        series = self.queue_depth[name]
        return float(series.values.max()) if len(series) else 0.0

    def bottleneck(self) -> str:
        """Instance with the highest time-weighted mean utilisation —
        the first place to look when latency grows.

        Each sample covers the window since the previous one; with a
        final partial window (or samples taken at uneven spacing) a
        plain mean would over-weight short windows, so samples are
        weighted by the wall of simulated time they describe.
        """
        def mean_util(name: str) -> float:
            series = self.utilization[name]
            if not len(series):
                return 0.0
            times = series.times
            values = series.values
            weights = np.diff(np.concatenate(([self._start_time], times)))
            total = weights.sum()
            if total <= 0:
                return float(values.mean())
            return float((values * weights).sum() / total)

        return max(self.utilization, key=mean_util)

    def __repr__(self) -> str:
        return (
            f"<ServiceMonitor {len(self.instances)} instances "
            f"every {self.interval}s>"
        )
