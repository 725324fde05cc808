"""The horizontal autoscaler: registry metrics in, replica counts out.

A use case in the spirit of the paper's SSV studies: the introduction
motivates uqSim with cluster management ("the scheduler must now
determine the impact of dependencies between any two microservices in
order to guarantee end-to-end QoS"). This HPA measures the managed
cohort's core utilisation over each decision window, publishes the
observation to the metrics registry, and requests a replica count
*through* :meth:`~repro.controlplane.ControlPlane.set_replicas` — so
scale-ups pay placement + cold start and scale-downs drain gracefully,
exactly like an operator-driven ``kubectl scale``. The cost side of
scaling is :meth:`~repro.controlplane.ControlPlane.core_seconds`.

Scaling follows the Kubernetes HPA formula::

    desired = ceil(current_ready * observed_utilisation / target)

clamped to ``[min_replicas, max_replicas]``, with an optional SLO
override: while an attached monitor is in breach, the HPA adds one
replica per cycle and never scales down: recovering QoS outranks
reclaiming capacity.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from ..engine import PRIORITY_MONITOR, Simulator
from ..errors import ConfigError
from ..telemetry.slo import SLOMonitor
from .controller import ControlPlane


class HorizontalAutoscaler:
    """Scales one service's replica count through the control plane."""

    def __init__(
        self,
        control_plane: ControlPlane,
        service: str,
        target_utilization: float = 0.6,
        min_replicas: int = 1,
        max_replicas: int = 8,
        decision_interval: float = 0.5,
        tolerance: float = 0.1,
        slo_monitor: Optional[SLOMonitor] = None,
    ) -> None:
        """*tolerance* is the HPA's deadband: no scaling while
        ``observed / target`` is within ``1 ± tolerance`` (Kubernetes
        defaults to 10%), which keeps the loop from flapping around the
        setpoint."""
        if not 0.0 < target_utilization <= 1.0:
            raise ConfigError(
                f"target_utilization must be in (0, 1], "
                f"got {target_utilization!r}"
            )
        if min_replicas < 1 or max_replicas < min_replicas:
            raise ConfigError(
                f"need 1 <= min_replicas <= max_replicas, got "
                f"{min_replicas}..{max_replicas}"
            )
        if decision_interval <= 0:
            raise ConfigError(
                f"decision_interval must be > 0, got {decision_interval!r}"
            )
        self.cp = control_plane
        self.sim: Simulator = control_plane.sim
        self.service = service
        self.target_utilization = target_utilization
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.decision_interval = decision_interval
        self.tolerance = tolerance
        self.slo_monitor = slo_monitor

        self.decisions = 0
        self.scale_ups = 0
        self.scale_downs = 0
        self.slo_scale_ups = 0
        self._last_time: Optional[float] = None
        self._last_busy: Dict[str, float] = {}
        self._started = False

    def start(self, stop_at: Optional[float] = None) -> "HorizontalAutoscaler":
        if self._started:
            raise ConfigError("HorizontalAutoscaler already started")
        self._started = True
        self.stop_at = stop_at
        self._last_time = self.sim.now
        self._snapshot_busy()
        self.sim.schedule(
            self.decision_interval, self._cycle, priority=PRIORITY_MONITOR
        )
        return self

    # Measurement ---------------------------------------------------------

    def _snapshot_busy(self) -> None:
        now = self.sim.now
        for replica in self.cp.ready_replicas(self.service):
            self._last_busy[replica.name] = replica.cores.busy_time(now)

    def observed_utilization(self) -> float:
        """Mean core utilisation of the ready cohort over the window
        just ended (replicas that appeared mid-window count from their
        first sighting)."""
        now = self.sim.now
        since = self._last_time if self._last_time is not None else now
        window = now - since
        if window <= 0:
            return 0.0
        utils = []
        for replica in self.cp.ready_replicas(self.service):
            busy = replica.cores.busy_time(now)
            previous = self._last_busy.get(replica.name)
            if previous is not None:
                utils.append(
                    (busy - previous) / (window * len(replica.cores))
                )
        return float(sum(utils) / len(utils)) if utils else 0.0

    # Decision loop -------------------------------------------------------

    def _cycle(self) -> None:
        if self.stop_at is not None and self.sim.now > self.stop_at:
            return
        self.sim.schedule(
            self.decision_interval, self._cycle, priority=PRIORITY_MONITOR
        )
        self.decisions += 1
        observed = self.observed_utilization()
        current = max(1, len(self.cp.ready_replicas(self.service)))
        self._snapshot_busy()
        self._last_time = self.sim.now

        if self.cp.metrics is not None:
            self.cp.metrics.gauge(
                "hpa_observed_utilization", service=self.service
            ).set(observed)

        slo_burning = self.slo_monitor is not None and any(
            state.breached for state in self.slo_monitor.states
        )
        desired = self.cp.desired(self.service)
        if slo_burning:
            proposed = min(self.max_replicas, desired + 1)
            if proposed > desired:
                self.slo_scale_ups += 1
        else:
            ratio = observed / self.target_utilization
            if abs(ratio - 1.0) <= self.tolerance:
                proposed = desired
            else:
                proposed = min(
                    self.max_replicas,
                    max(self.min_replicas, math.ceil(current * ratio)),
                )
        if proposed != desired:
            if proposed > desired:
                self.scale_ups += 1
            else:
                self.scale_downs += 1
            self.cp.set_replicas(self.service, proposed)
        if self.cp.metrics is not None:
            self.cp.metrics.gauge(
                "hpa_desired_replicas", service=self.service
            ).set(self.cp.desired(self.service))

    def __repr__(self) -> str:
        return (
            f"<HorizontalAutoscaler {self.service} "
            f"decisions={self.decisions} ups={self.scale_ups} "
            f"downs={self.scale_downs}>"
        )
