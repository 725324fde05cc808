"""Frequency-dependent processing-time tables.

Paper SSIII-B: a stage "is assigned to one or more execution time
distributions that describe the stage's processing time under different
settings, like different DVFS configurations"; and SSV-B: "we adjust the
processing time of each execution stage as frequency changes by
providing histograms corresponding to different frequencies".

:class:`FrequencyTable` holds one distribution per DVFS frequency. When
a frequency with no explicit entry is requested, the nearest profiled
frequency's distribution is scaled by the frequency ratio — the standard
first-order model of a compute-bound stage (cycles constant, time
inversely proportional to clock).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ..errors import DistributionError
from .base import Distribution
from .buffered import DEFAULT_BLOCK, BufferedSampler


class FrequencyTable:
    """Maps CPU frequency (Hz) to a processing-time distribution."""

    def __init__(
        self,
        table: Dict[float, Distribution],
        compute_fraction: float = 1.0,
    ) -> None:
        """
        *table* maps frequency in Hz to the profiled distribution at that
        frequency. *compute_fraction* in [0, 1] is the share of the stage
        time that scales with frequency (the rest — memory/IO-bound work
        — does not); 1.0 is pure compute.
        """
        if not table:
            raise DistributionError("FrequencyTable needs at least one entry")
        for freq in table:
            if freq <= 0:
                raise DistributionError(f"frequency must be > 0 Hz, got {freq!r}")
        if not 0.0 <= compute_fraction <= 1.0:
            raise DistributionError(
                f"compute_fraction must be in [0,1], got {compute_fraction!r}"
            )
        self._table = dict(sorted(table.items()))
        self.compute_fraction = float(compute_fraction)

    @classmethod
    def single(
        cls,
        dist: Distribution,
        frequency: float,
        compute_fraction: float = 1.0,
    ) -> "FrequencyTable":
        """A table profiled at just one frequency; other points scale."""
        return cls({float(frequency): dist}, compute_fraction)

    @property
    def frequencies(self) -> list:
        """Profiled frequencies, ascending (Hz)."""
        return list(self._table)

    def _nearest(self, frequency: float) -> float:
        freqs = np.asarray(list(self._table), dtype=float)
        return float(freqs[np.argmin(np.abs(freqs - frequency))])

    def scale_factor(self, frequency: float) -> float:
        """Slowdown factor applied when running at *frequency* instead of
        the nearest profiled frequency."""
        base = self._nearest(frequency)
        ratio = base / float(frequency)
        # Amdahl-style: only the compute fraction stretches/shrinks.
        return self.compute_fraction * ratio + (1.0 - self.compute_fraction)

    def at(self, frequency: float) -> Distribution:
        """Distribution for the stage when the core runs at *frequency* Hz."""
        if frequency <= 0:
            raise DistributionError(f"frequency must be > 0 Hz, got {frequency!r}")
        exact = self._table.get(float(frequency))
        if exact is not None:
            return exact
        base = self._nearest(frequency)
        factor = self.scale_factor(frequency)
        if factor == 1.0:
            return self._table[base]
        return self._table[base].scaled(factor)

    def sample(
        self,
        rng: np.random.Generator,
        frequency: Optional[float] = None,
    ) -> float:
        """Draw one processing time, at the highest profiled frequency by
        default (the nominal operating point)."""
        if frequency is None:
            frequency = max(self._table)
        return self.at(frequency).sample(rng)

    def make_sampler(
        self,
        rng: np.random.Generator,
        block: int = DEFAULT_BLOCK,
        point_rng: Optional[Callable[[float], np.random.Generator]] = None,
    ) -> "FrequencySampler":
        """A block-buffered sampler over this table.

        The sampler buffers draws of the *profiled* distributions and
        applies the frequency-ratio scale factor per serve, so buffered
        values never go stale across DVFS transitions. The nominal
        (highest) profiled point draws from *rng*; every other profiled
        point draws from its own generator, ``point_rng(frequency)``,
        which a table with more than one profiled point needs.
        """
        return FrequencySampler(self, rng, block, point_rng)

    def mean(self, frequency: Optional[float] = None) -> float:
        """Mean processing time at *frequency* (nominal if omitted)."""
        if frequency is None:
            frequency = max(self._table)
        return self.at(frequency).mean()

    def __repr__(self) -> str:
        ghz = ", ".join(f"{f/1e9:.2f}GHz" for f in self._table)
        return f"FrequencyTable([{ghz}], compute={self.compute_fraction})"


class FrequencySampler:
    """Block-buffered draws from a :class:`FrequencyTable`.

    Keeps one :class:`~repro.distributions.buffered.BufferedSampler`
    per *profiled* frequency, each on its own generator (*rng* for the
    nominal point, ``point_rng(frequency)`` for the others), and scales
    each served value by the table's frequency-ratio factor for the
    frequency actually requested. Scaling at serve time (instead of
    buffering the scaled distribution) keeps DVFS transitions exact: a
    frequency change takes effect on the very next draw, never a
    buffer-full later.

    Because no two buffers share a generator, each profiled point's
    values are bitwise-identical to what scalar
    ``table.sample(gen, frequency)`` calls on that point's generator
    ``gen`` would produce, whatever the block size and however
    frequencies interleave: the profiled draw consumes the stream
    identically and ``x * factor`` commutes with
    :class:`~repro.distributions.standard.Scaled`'s ``factor * x``.
    """

    __slots__ = ("table", "_rng", "_block", "_point_rng", "_buffers",
                 "_bindings", "_nominal")

    def __init__(
        self,
        table: FrequencyTable,
        rng: np.random.Generator,
        block: int = DEFAULT_BLOCK,
        point_rng: Optional[Callable[[float], np.random.Generator]] = None,
    ) -> None:
        self.table = table
        self._rng = rng
        self._block = block
        self._point_rng = point_rng
        self._buffers: Dict[float, BufferedSampler] = {}
        # requested frequency -> (profiled-dist buffer, scale factor);
        # DVFS transitions are rare, so this cache almost always hits.
        self._bindings: Dict[float, tuple] = {}
        self._nominal = max(table.frequencies)

    def _bind(self, frequency: float) -> tuple:
        nearest = self.table._nearest(frequency)
        buffer = self._buffers.get(nearest)
        if buffer is None:
            buffer = BufferedSampler(
                self.table._table[nearest], self._generator(nearest),
                self._block,
            )
            self._buffers[nearest] = buffer
        binding = (buffer, self.table.scale_factor(frequency))
        self._bindings[frequency] = binding
        return binding

    def _generator(self, point: float) -> np.random.Generator:
        """The generator profiled point *point*'s buffer owns."""
        if point == self._nominal:
            return self._rng
        if self._point_rng is None:
            raise DistributionError(
                f"{self.table!r}: profiled point {point:g} Hz needs its "
                f"own generator (pass point_rng); sharing the nominal "
                f"point's would make served values depend on the block "
                f"size"
            )
        return self._point_rng(point)

    def sample(self, frequency: Optional[float] = None) -> float:
        """One processing time at *frequency* (nominal if omitted)."""
        if frequency is None:
            frequency = self._nominal
        binding = self._bindings.get(frequency)
        if binding is None:
            if frequency <= 0:
                raise DistributionError(
                    f"frequency must be > 0 Hz, got {frequency!r}"
                )
            binding = self._bind(frequency)
        buffer, factor = binding
        value = buffer.sample()
        return value if factor == 1.0 else value * factor

    def take(self, n: int, frequency: Optional[float] = None) -> list:
        """The next *n* processing times at *frequency*, in order."""
        if frequency is None:
            frequency = self._nominal
        binding = self._bindings.get(frequency)
        if binding is None:
            if frequency <= 0:
                raise DistributionError(
                    f"frequency must be > 0 Hz, got {frequency!r}"
                )
            binding = self._bind(frequency)
        buffer, factor = binding
        values = buffer.take(n)
        if factor == 1.0:
            return values
        return [v * factor for v in values]
