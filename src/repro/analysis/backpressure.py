"""Backpressure onset detection.

The paper motivates microservice simulation with cascading QoS
violations: "dependencies between neighboring microservices introduce
backpressure effects, creating cascading hotspots and QoS violations
through the system" (SSV-B), and "a single poorly-configured
microservice on the critical path can cause cascading QoS violations"
(SSI). Given the per-tier ``depth/<tier>`` and ``util/<tier>`` series
of a :class:`~repro.telemetry.Scraper`, this module finds *where the
cascade started*: the tier whose queues grew first is the culprit;
everything that lights up later is collateral.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import ReproError
from ..telemetry.scrape import Scraper
from ..telemetry.timeseries import TimeSeries


@dataclass
class BackpressureOnset:
    """When a tier's queues first grew beyond its baseline."""

    instance: str
    onset_time: float
    peak_depth: float
    baseline_depth: float


def _tier_series(
    scraper: Scraper, kind: str
) -> Iterator[Tuple[str, TimeSeries]]:
    """``(tier, series)`` for every non-empty ``<kind>/<tier>`` series."""
    prefix = f"{kind}/"
    for name, series in scraper.series.items():
        if name.startswith(prefix) and len(series):
            yield name[len(prefix):], series


def detect_onsets(
    scraper: Scraper,
    threshold_factor: float = 4.0,
    min_depth: float = 4.0,
    baseline_fraction: float = 0.2,
) -> List[BackpressureOnset]:
    """Find each tier's backpressure onset, earliest first.

    A tier's baseline is its mean queue depth over the first
    *baseline_fraction* of the observation window; its onset is the
    first sample exceeding ``max(min_depth, threshold_factor x
    baseline)``. Tiers that never cross are omitted. The returned
    order IS the causal story: upstream victims of a slow dependency
    start queueing strictly after the dependency does.
    """
    if threshold_factor <= 1.0:
        raise ReproError(
            f"threshold_factor must be > 1, got {threshold_factor!r}"
        )
    if not 0.0 < baseline_fraction < 1.0:
        raise ReproError(
            f"baseline_fraction must be in (0,1), got {baseline_fraction!r}"
        )
    onsets: List[BackpressureOnset] = []
    for name, series in _tier_series(scraper, "depth"):
        times = series.times
        depths = series.values
        cut = max(1, int(len(depths) * baseline_fraction))
        baseline = float(depths[:cut].mean())
        threshold = max(min_depth, threshold_factor * baseline)
        over = np.nonzero(depths > threshold)[0]
        if over.size == 0:
            continue
        onsets.append(
            BackpressureOnset(
                instance=name,
                onset_time=float(times[over[0]]),
                peak_depth=float(depths.max()),
                baseline_depth=baseline,
            )
        )
    onsets.sort(key=lambda o: o.onset_time)
    return onsets


def culprit(
    scraper: Scraper,
    threshold_factor: float = 4.0,
    min_depth: float = 4.0,
) -> Optional[str]:
    """The tier where the cascade started (None if no backpressure)."""
    onsets = detect_onsets(scraper, threshold_factor, min_depth)
    return onsets[0].instance if onsets else None


def cascade_report(scraper: Scraper) -> Dict[str, float]:
    """Tier -> onset time, for quick printing/plotting."""
    return {o.instance: o.onset_time for o in detect_onsets(scraper)}


def bottleneck(scraper: Scraper) -> Optional[str]:
    """Tier with the highest time-weighted mean utilisation — the
    first place to look when latency grows (None if nothing sampled).

    Each sample describes the window since the previous one (the first
    covers one scrape interval), and a final partial window is shorter
    than the rest, so a plain mean would over-weight it; samples are
    weighted by the simulated time they describe.
    """
    def mean_util(series: TimeSeries) -> float:
        times = series.times
        weights = np.diff(times, prepend=times[0] - scraper.interval)
        return float(np.average(series.values, weights=weights))

    means = {tier: mean_util(s) for tier, s in _tier_series(scraper, "util")}
    return max(means, key=means.__getitem__) if means else None
