"""Empirical processing-time histograms.

Paper Table I / SSIII-B: stage processing times may be supplied as
"processing time histograms collected through profiling, which requires
users to instrument applications and record timestamps at boundaries of
queueing stages". This module implements that input format: a binned
PDF, sampled by inverse-CDF with uniform interpolation inside each bin.

The on-disk format is JSON::

    {
      "unit": "us",                  # "s" | "ms" | "us" | "ns"
      "edges": [0, 10, 20, 50],      # n+1 increasing bin edges
      "counts": [5, 90, 5]           # n non-negative bin weights
    }

Counts need not be normalised — they are raw profile counts.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from ..errors import DistributionError
from .base import Distribution

_UNIT_SCALE = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}


class Histogram(Distribution):
    """A binned empirical distribution (times in seconds)."""

    def __init__(self, edges: Sequence[float], counts: Sequence[float]) -> None:
        edges_arr = np.asarray(edges, dtype=float)
        counts_arr = np.asarray(counts, dtype=float)
        if edges_arr.ndim != 1 or counts_arr.ndim != 1:
            raise DistributionError("edges and counts must be 1-D sequences")
        if len(edges_arr) != len(counts_arr) + 1:
            raise DistributionError(
                f"need len(edges) == len(counts)+1, got "
                f"{len(edges_arr)} edges / {len(counts_arr)} counts"
            )
        if len(counts_arr) == 0:
            raise DistributionError("histogram needs at least one bin")
        if np.any(np.diff(edges_arr) <= 0):
            raise DistributionError("edges must be strictly increasing")
        if edges_arr[0] < 0:
            raise DistributionError("times cannot be negative")
        if np.any(counts_arr < 0):
            raise DistributionError("counts must be non-negative")
        total = counts_arr.sum()
        if total <= 0:
            raise DistributionError("histogram is empty (all counts zero)")
        self.edges = edges_arr
        self.counts = counts_arr
        self._cdf = np.cumsum(counts_arr) / total
        self._pdf = counts_arr / total

    # Construction helpers ---------------------------------------------

    @classmethod
    def from_samples(
        cls, samples: Sequence[float], bins: int = 64
    ) -> "Histogram":
        """Bin raw profiled samples into a histogram distribution."""
        samples_arr = np.asarray(samples, dtype=float)
        if samples_arr.size == 0:
            raise DistributionError("cannot build a histogram from no samples")
        if np.any(samples_arr < 0):
            raise DistributionError("profiled times cannot be negative")
        lo = float(samples_arr.min())
        hi = float(samples_arr.max())
        edges = np.linspace(lo, hi, bins + 1)
        if np.any(edges[:-1] >= edges[1:]):
            # Degenerate profile (one value, or a range a few ulps wide
            # that cannot be split into *bins* bins): one tiny bin.
            width = max(abs(hi), 1e-12) * 1e-6
            return cls([max(lo - width, 0.0), hi + width], [1.0])
        counts, edges = np.histogram(samples_arr, bins=bins)
        return cls(edges, counts)

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        """Parse the profiling JSON format (see module docstring)."""
        try:
            unit = payload.get("unit", "s")
            edges = payload["edges"]
            counts = payload["counts"]
        except (KeyError, AttributeError) as exc:
            raise DistributionError(f"malformed histogram payload: {exc}") from exc
        if unit not in _UNIT_SCALE:
            raise DistributionError(
                f"unknown unit {unit!r}; expected one of {sorted(_UNIT_SCALE)}"
            )
        scale = _UNIT_SCALE[unit]
        return cls([e * scale for e in edges], counts)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Histogram":
        """Load a histogram file produced by profiling instrumentation."""
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def dump(self, path: Union[str, Path], unit: str = "s") -> None:
        """Write this histogram in the profiling JSON format."""
        if unit not in _UNIT_SCALE:
            raise DistributionError(f"unknown unit {unit!r}")
        scale = _UNIT_SCALE[unit]
        payload = {
            "unit": unit,
            "edges": (self.edges / scale).tolist(),
            "counts": self.counts.tolist(),
        }
        with open(path, "w") as f:
            json.dump(payload, f, indent=2)

    # Distribution interface -------------------------------------------

    def sample(self, rng: np.random.Generator) -> float:
        u = rng.random()
        idx = int(np.searchsorted(self._cdf, u, side="left"))
        idx = min(idx, len(self.counts) - 1)
        lo, hi = self.edges[idx], self.edges[idx + 1]
        return float(lo + rng.random() * (hi - lo))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # One block of 2n uniforms, de-interleaved, so the stream is
        # consumed in the same (u, v, u, v, ...) order as n scalar
        # sample() calls — block draws stay bitwise-equivalent to
        # scalar draws (the BufferedSampler contract).
        uv = rng.random(2 * n)
        u = uv[0::2]
        idx = np.minimum(
            np.searchsorted(self._cdf, u, side="left"), len(self.counts) - 1
        )
        lo = self.edges[idx]
        hi = self.edges[idx + 1]
        return lo + uv[1::2] * (hi - lo)

    def mean(self) -> float:
        mids = (self.edges[:-1] + self.edges[1:]) / 2.0
        return float(np.dot(mids, self._pdf))

    def percentile(self, q: float) -> float:
        """Inverse CDF at quantile *q* in [0, 1] (bin-interpolated)."""
        if not 0.0 <= q <= 1.0:
            raise DistributionError(f"quantile must be in [0,1], got {q!r}")
        idx = int(np.searchsorted(self._cdf, q, side="left"))
        idx = min(idx, len(self.counts) - 1)
        prev_cdf = self._cdf[idx - 1] if idx > 0 else 0.0
        bin_mass = self._cdf[idx] - prev_cdf
        frac = 0.0 if bin_mass <= 0 else (q - prev_cdf) / bin_mass
        lo, hi = self.edges[idx], self.edges[idx + 1]
        return float(lo + frac * (hi - lo))

    def __repr__(self) -> str:
        return (
            f"Histogram(bins={len(self.counts)}, "
            f"range=[{self.edges[0]:.3g},{self.edges[-1]:.3g}]s)"
        )
