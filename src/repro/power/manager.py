"""The QoS-aware power manager (paper Algorithm 1).

A periodic controller dividing the end-to-end tail-latency QoS into
per-tier QoS targets. Each decision interval it reads the trailing
per-tier and end-to-end p99 latencies and either

* (QoS met) records the observation into the matching latency bucket,
  periodically re-draws the target bucket / per-tier QoS tuple, and
  slows down AT MOST ONE tier — the one with the largest latency slack
  — by one DVFS step ("the scheduler only slows down 1 tier at a time,
  to prevent cascading violations"), or
* (QoS violated) penalises the bucket the current target came from,
  appends the target to its failing list, re-draws a target, and speeds
  up every tier whose latency exceeds its per-tier target.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..engine import PRIORITY_MONITOR, Simulator
from ..errors import ConfigError
from ..service import Microservice
from ..telemetry.latency import WindowedLatency
from ..telemetry.timeseries import TimeSeries
from ..telemetry.slo import LATENCY, SLO
from .buckets import Bucket, LatencyBuckets, TierTuple

#: How many decision cycles between voluntary target re-draws
#: (Algorithm 1 line 10's "CycleCount > Interval").
RETARGET_EVERY = 5


class PowerManager:
    """Runs Algorithm 1 inside the simulation."""

    def __init__(
        self,
        sim: Simulator,
        tiers: Dict[str, Sequence[Microservice]],
        client_latencies: WindowedLatency,
        qos_target: Optional[float] = None,
        decision_interval: float = 0.5,
        num_buckets: int = 10,
        percentile: float = 99.0,
        min_samples: int = 20,
        slo: Optional[SLO] = None,
    ) -> None:
        """
        *tiers* maps tier name -> instances whose DVFS is actuated
        together; *client_latencies* is the end-to-end trailing window
        the client feeds; *qos_target* is the end-to-end tail-latency
        QoS in seconds. Alternatively pass a latency *slo*
        (:class:`~repro.telemetry.slo.SLO`): Algorithm 1's QoS check
        then evaluates that objective — the threshold becomes the QoS
        target and the objective's percentile the sensed statistic — so
        the controller and the SLO alerter judge the run by the same
        declarative objective.
        """
        if not tiers:
            raise ConfigError("power manager needs at least one tier")
        if slo is not None:
            if slo.metric != LATENCY:
                raise ConfigError(
                    f"power manager needs a latency SLO, got {slo.name!r}"
                )
            if qos_target is not None and qos_target != slo.threshold:
                raise ConfigError(
                    "pass either qos_target or slo, not conflicting both"
                )
            qos_target = slo.threshold
            percentile = slo.percentile
        if qos_target is None:
            raise ConfigError("power manager needs qos_target or slo")
        if qos_target <= 0:
            raise ConfigError(f"qos_target must be > 0, got {qos_target!r}")
        if decision_interval <= 0:
            raise ConfigError(
                f"decision_interval must be > 0, got {decision_interval!r}"
            )
        self.sim = sim
        self.slo = slo
        self.tier_names: List[str] = list(tiers)
        self.tiers = {name: list(instances) for name, instances in tiers.items()}
        self.client_latencies = client_latencies
        self.qos_target = float(qos_target)
        self.decision_interval = float(decision_interval)
        self.percentile = percentile
        self.min_samples = min_samples
        self._rng = sim.random.stream("power-manager")

        # Per-tier trailing latency sensors, fed by completion listeners.
        # The window matches the decision interval (floored for sample
        # count): the controller acts on the state of the last interval,
        # not a stale multi-interval average.
        sensor_window = max(decision_interval, 0.05)
        self._tier_windows: Dict[str, WindowedLatency] = {}
        for name, instances in self.tiers.items():
            window = WindowedLatency(sensor_window, name)
            self._tier_windows[name] = window
            for instance in instances:
                instance.on_job_complete(
                    lambda job, _w=window: _w.record(
                        job.completed_at, job.service_latency
                    )
                )

        # Learning state.
        self.buckets = LatencyBuckets(
            num_buckets, span=2.0 * self.qos_target, num_tiers=len(self.tiers)
        )
        self._target_bucket: Optional[Bucket] = None
        self._target_tuple: Optional[TierTuple] = None
        self._cycles_since_retarget = 0

        # Telemetry (Fig 16 / Table III).
        self.decisions = 0
        self.violations = 0
        self.p99_series = TimeSeries("e2e_p99")
        self.frequency_series: Dict[str, TimeSeries] = {
            name: TimeSeries(f"freq/{name}") for name in self.tier_names
        }

    # Lifecycle ------------------------------------------------------------

    def start(self) -> "PowerManager":
        """Schedule the first decision cycle."""
        self.sim.schedule(
            self.decision_interval, self._cycle, priority=PRIORITY_MONITOR
        )
        return self

    @property
    def violation_rate(self) -> float:
        """Fraction of decision intervals that violated QoS (Table III)."""
        if self.decisions == 0:
            return 0.0
        return self.violations / self.decisions

    def tier_frequency(self, tier: str) -> float:
        return self.tiers[tier][0].frequency

    # Decision loop ---------------------------------------------------------

    def _tier_stats(self) -> Optional[TierTuple]:
        values = []
        for name in self.tier_names:
            p = self._tier_windows[name].percentile(self.percentile)
            if p is None:
                return None
            values.append(p)
        return tuple(values)

    def _set_tier_frequency(self, tier: str, frequency: float) -> None:
        for instance in self.tiers[tier]:
            instance.set_frequency(frequency)

    def _step_tier(self, tier: str, direction: int, steps: int = 1) -> None:
        instances = self.tiers[tier]
        ladder = instances[0].cores.cores[0].ladder
        current = instances[0].frequency
        if direction < 0:
            target = ladder.step_down(current, steps)
        else:
            target = ladder.step_up(current, steps)
        if target != current:
            self._set_tier_frequency(tier, target)

    def _retarget(self) -> None:
        bucket, tier_tuple = self.buckets.choose_target(self._rng)
        if bucket is not None:
            self._target_bucket = bucket
            self._target_tuple = tier_tuple
        self._cycles_since_retarget = 0

    def _cycle(self) -> None:
        self.sim.schedule(
            self.decision_interval, self._cycle, priority=PRIORITY_MONITOR
        )
        e2e = (
            self.client_latencies.percentile(self.percentile)
            if len(self.client_latencies) >= self.min_samples
            else None
        )
        if e2e is None:
            return  # not enough traffic yet to act on
        self.decisions += 1
        self.p99_series.append(self.sim.now, e2e)
        stats = self._tier_stats()

        if e2e < self.qos_target:
            # QoS met (Algorithm 1 lines 5-14).
            if stats is not None:
                self.buckets.observe(e2e, stats)
            self._cycles_since_retarget += 1
            if self._cycles_since_retarget >= RETARGET_EVERY:
                self._retarget()
            self._slow_down_one_tier(stats)
        else:
            # QoS violated (lines 15-21).
            self.violations += 1
            if self._target_bucket is not None and self._target_tuple is not None:
                self._target_bucket.penalise()
                self._target_bucket.record_failure(self._target_tuple)
            self._retarget()
            self._speed_up_lagging_tiers(stats)

        for name in self.tier_names:
            self.frequency_series[name].append(
                self.sim.now, self.tier_frequency(name)
            )

    def _slow_down_one_tier(self, stats: Optional[TierTuple]) -> None:
        """Pick the tier with the most slack against its per-tier QoS
        and lower its frequency by one step (lines 10-14)."""
        if stats is None:
            return
        target = self._target_tuple
        if target is None:
            # No learned target yet: split the end-to-end QoS evenly,
            # the algorithm's cold-start divide-and-conquer guess.
            target = tuple(
                self.qos_target / len(self.tier_names)
                for _ in self.tier_names
            )
        slacks = [
            (t - s) / t if t > 0 else 0.0 for s, t in zip(stats, target)
        ]
        # Highest slack first, skipping tiers already at the DVFS floor
        # (stepping them down again would silently do nothing and starve
        # the other tiers of their turn).
        for idx in sorted(range(len(slacks)), key=lambda i: -slacks[i]):
            if slacks[idx] <= 0:
                return  # no remaining tier has positive slack
            tier = self.tier_names[idx]
            instances = self.tiers[tier]
            ladder = instances[0].cores.cores[0].ladder
            if instances[0].frequency > ladder.min:
                # Still "at most 1 tier" per cycle (Algorithm 1 line
                # 14), but descend faster while the slack is large so
                # long decision intervals also converge within a run.
                steps = 3 if slacks[idx] > 0.6 else (
                    2 if slacks[idx] > 0.3 else 1
                )
                self._step_tier(tier, direction=-1, steps=steps)
                return

    def _speed_up_lagging_tiers(self, stats: Optional[TierTuple]) -> None:
        """Raise the frequency of every tier running late (line 20)."""
        if stats is None:
            # Blind violation: speed everything up.
            for name in self.tier_names:
                self._step_tier(name, direction=+1)
            return
        target = self._target_tuple or tuple(
            self.qos_target / len(self.tier_names) for _ in self.tier_names
        )
        for name, observed, tier_target in zip(self.tier_names, stats, target):
            if observed > tier_target:
                # Violations recover aggressively: two steps up.
                self._step_tier(name, direction=+1, steps=2)

    def __repr__(self) -> str:
        return (
            f"<PowerManager tiers={self.tier_names} qos={self.qos_target*1e3}ms "
            f"interval={self.decision_interval}s violations="
            f"{self.violations}/{self.decisions}>"
        )
