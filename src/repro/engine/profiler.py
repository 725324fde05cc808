"""Opt-in self-profiling of the event loop.

When a simulation is slower than expected, the question is *which
handlers* the wall-clock went to — arrivals, stage completions, monitor
ticks, resilience timers — and *which microservice* owns them. The
:class:`EngineProfiler` answers both by timing every event handler the
:class:`~repro.engine.simulator.Simulator` fires:

* **by kind** — the handler's qualified name (e.g.
  ``Instance._complete_stage``), the event-loop analogue of a flat
  profile;
* **by site** — the ``name`` of the bound method's owner when it has
  one (instance names, client names, monitor names), attributing
  wall-time to the simulated component that scheduled the work.

Profiling is strictly opt-in: ``sim.profiler = EngineProfiler()``
before ``run()``. The simulator's one run loop checks the attribute
with a single ``is None`` branch per event; every ``benchmarks/perf``
workload runs with the profiler off, so the perf gate
(``python -m benchmarks.compare``) fails a change that makes that
branch costly. Profiled runs pay two
``perf_counter`` reads plus a couple of dict updates per event;
expect a moderate, roughly uniform slowdown that leaves the *relative*
ranking honest.

:meth:`EngineProfiler.summary` returns the JSON-ready payload (events,
wall seconds, events/sec, top hotspots) the CLI's ``--profile`` flag
prints.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import ReproError


@dataclass
class ProfileEntry:
    """Aggregated cost of one handler kind (or one site)."""

    key: str
    count: int
    seconds: float  #: total wall-clock spent in the handler

    @property
    def mean_us(self) -> float:
        return self.seconds / self.count * 1e6 if self.count else 0.0


def _kind_of(fn: Callable[..., Any]) -> str:
    """Stable flat-profile key of an event handler."""
    kind = getattr(fn, "__qualname__", None)
    if kind is None:  # partials, odd callables
        kind = repr(fn)
    return kind


def _site_of(fn: Callable[..., Any]) -> Optional[str]:
    """The simulated component owning a bound-method handler, when it
    is nameable (instances, clients, monitors all carry ``.name``)."""
    owner = getattr(fn, "__self__", None)
    if owner is None:
        return None
    name = getattr(owner, "name", None)
    return name if isinstance(name, str) else None


class EngineProfiler:
    """Accumulates per-event wall-time; attach as ``sim.profiler``.

    The simulator calls :meth:`dispatch` instead of ``fn(*args)`` while
    profiling is on; everything else (scheduling, guardrails, the
    clock) is untouched, so profiled runs process the identical event
    sequence.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.events = 0
        self.wall = 0.0  #: total wall seconds inside handlers
        self.started: Optional[float] = None  #: first dispatch wall stamp
        self.finished: Optional[float] = None  #: last dispatch wall stamp
        self._by_kind: Dict[str, List[float]] = {}  # key -> [count, secs]
        self._by_site: Dict[str, List[float]] = {}

    # Hot path ----------------------------------------------------------

    def dispatch(self, fn: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        """Run ``fn(*args)``, booking its wall-time."""
        clock = self.clock
        t0 = clock()
        try:
            fn(*args)
        finally:
            elapsed = clock() - t0
            if self.started is None:
                self.started = t0
            self.finished = t0 + elapsed
            self.events += 1
            self.wall += elapsed
            bucket = self._by_kind.get(_kind_of(fn))
            if bucket is None:
                bucket = self._by_kind.setdefault(_kind_of(fn), [0, 0.0])
            bucket[0] += 1
            bucket[1] += elapsed
            site = _site_of(fn)
            if site is not None:
                sbucket = self._by_site.get(site)
                if sbucket is None:
                    sbucket = self._by_site.setdefault(site, [0, 0.0])
                sbucket[0] += 1
                sbucket[1] += elapsed

    # Reporting ---------------------------------------------------------

    def events_per_second(self) -> float:
        """Events dispatched per wall second of handler time."""
        return self.events / self.wall if self.wall > 0 else 0.0

    def _ranked(self, table: Dict[str, List[float]]) -> List[ProfileEntry]:
        entries = [
            ProfileEntry(key=key, count=int(count), seconds=secs)
            for key, (count, secs) in table.items()
        ]
        entries.sort(key=lambda e: -e.seconds)
        return entries

    def hotspots(self, top: int = 10) -> List[ProfileEntry]:
        """Handler kinds ranked by total wall-time, costliest first."""
        if top < 1:
            raise ReproError(f"top must be >= 1, got {top!r}")
        return self._ranked(self._by_kind)[:top]

    def sites(self, top: int = 10) -> List[ProfileEntry]:
        """Simulated components ranked by handler wall-time."""
        if top < 1:
            raise ReproError(f"top must be >= 1, got {top!r}")
        return self._ranked(self._by_site)[:top]

    def reset(self) -> None:
        self.events = 0
        self.wall = 0.0
        self.started = None
        self.finished = None
        self._by_kind.clear()
        self._by_site.clear()

    def summary(self, top: int = 10) -> Dict[str, Any]:
        """JSON-ready payload of the profile."""
        return {
            "events": self.events,
            "handler_wall_s": self.wall,
            "events_per_sec": self.events_per_second(),
            "hotspots": [
                {
                    "key": e.key,
                    "count": e.count,
                    "seconds": e.seconds,
                    "mean_us": e.mean_us,
                }
                for e in self.hotspots(top)
            ] if self._by_kind else [],
            "sites": [
                {
                    "key": e.key,
                    "count": e.count,
                    "seconds": e.seconds,
                    "mean_us": e.mean_us,
                }
                for e in self.sites(top)
            ] if self._by_site else [],
        }

    def __repr__(self) -> str:
        return (
            f"<EngineProfiler events={self.events} "
            f"wall={self.wall:.3f}s kinds={len(self._by_kind)}>"
        )
