"""Core energy accounting for the power-management study.

The paper motivates Algorithm 1 with datacenter energy proportionality
(SSV-B); this module quantifies what the DVFS schedule actually saved.
Per-core power follows the standard CMOS model::

    P(f) = P_static + P_dynamic_max * (f / f_max)^3

(dynamic power tracks f x V^2 and voltage scales roughly with
frequency). Integrating a tier's frequency time series gives its energy
over the run, compared against the always-max baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..errors import ReproError
from ..telemetry.timeseries import TimeSeries


@dataclass
class CorePowerModel:
    """Per-core power in Watts at a given frequency."""

    static_w: float = 5.0
    dynamic_max_w: float = 15.0
    f_max: float = 2.6e9

    def power(self, frequency: float) -> float:
        if frequency <= 0:
            raise ReproError(f"frequency must be > 0, got {frequency!r}")
        ratio = frequency / self.f_max
        return self.static_w + self.dynamic_max_w * ratio**3


def tier_energy(
    frequency_series: TimeSeries,
    num_cores: int,
    model: CorePowerModel,
    t_end: float,
) -> float:
    """Joules consumed by a tier whose cores followed *frequency_series*.

    The series is piecewise-constant between samples; the last sample
    extends to *t_end*.
    """
    if num_cores < 1:
        raise ReproError(f"num_cores must be >= 1, got {num_cores}")
    times = frequency_series.times
    freqs = frequency_series.values
    if times.size == 0:
        raise ReproError("empty frequency series")
    if t_end < times[-1]:
        raise ReproError(
            f"t_end ({t_end}) precedes the last sample ({times[-1]})"
        )
    # Assume the first recorded frequency also held from t=0.
    boundaries = np.concatenate([[0.0], times[1:], [t_end]])
    energy = 0.0
    for i, frequency in enumerate(freqs):
        duration = boundaries[i + 1] - boundaries[i]
        energy += model.power(float(frequency)) * duration
    return energy * num_cores


@dataclass
class EnergyReport:
    """Energy outcome of one power-managed run."""

    managed_joules: float
    baseline_joules: float

    @property
    def savings_fraction(self) -> float:
        if self.baseline_joules <= 0:
            return 0.0
        return 1.0 - self.managed_joules / self.baseline_joules


def energy_report(
    frequency_series: Dict[str, TimeSeries],
    cores_per_tier: Dict[str, int],
    t_end: float,
    model: CorePowerModel = None,
) -> EnergyReport:
    """Total energy of all managed tiers vs the run-at-max baseline."""
    model = model or CorePowerModel()
    managed = 0.0
    baseline = 0.0
    for tier, series in frequency_series.items():
        cores = cores_per_tier[tier]
        managed += tier_energy(series, cores, model, t_end)
        baseline += model.power(model.f_max) * cores * t_end
    return EnergyReport(managed_joules=managed, baseline_joules=baseline)
