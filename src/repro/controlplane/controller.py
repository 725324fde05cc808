"""The reconciling controller: desired state vs. live deployment.

A :class:`ControlPlane` runs *inside* the simulation on its own event
stream (monitor priority, like the SLO alerter), the way a Kubernetes
controller watches the API server rather than the packets. Each
reconcile cycle it compares every applied :class:`ReplicaSpec` against
the live deployment and closes the gap:

* **dead replicas** (state ``down`` — an instance crash or a machine
  fault) are retired, their cores released, and replacements scheduled
  onto surviving machines through the :class:`Scheduler`, paying a
  configurable **cold-start delay** before the new replica serves;
* **version drift** (a rollout changed ``spec.version``) is closed one
  replica at a time: surge a replacement running the new version, and
  once it is ready drain one stale replica — a rolling update with
  max-surge 1 / max-unavailable 0;
* **scale changes** (``set_replicas``, e.g. from the
  :class:`~repro.controlplane.HorizontalAutoscaler`) add replicas
  through the same cold-start path or gracefully drain the newest
  ones, which retire only once idle — no request is abandoned by a
  scale-down;
* **canary cohorts** (surge replicas added by a
  :class:`~repro.controlplane.CanaryRollout`) live outside the desired
  count until promoted or rolled back.

Every action lands in :attr:`ControlPlane.events` as a
:class:`~repro.telemetry.tracing.SpanEvent` and, when a
:class:`~repro.telemetry.metrics.MetricsRegistry` is attached, in
labelled counters/gauges. The controller draws no randomness — ties
break on deterministic ordering — so control-plane runs reproduce
exactly, and a world without a control plane never touches this module.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..engine import PRIORITY_MONITOR, Simulator
from ..errors import ConfigError, SchedulingError, TopologyError
from ..hardware import Cluster
from ..service.microservice import STATE_DOWN, STATE_DRAINING, STATE_UP
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.tracing import SpanEvent
from ..topology import Deployment
from .scheduler import Scheduler
from .spec import ReplicaSpec


class _Pending:
    """One replica between placement decision and cold-start finish."""

    __slots__ = ("name", "service", "machine", "cores", "version",
                 "factory", "surge", "event")

    def __init__(self, name, service, machine, cores, version, factory,
                 surge, event=None):
        self.name = name
        self.service = service
        self.machine = machine
        self.cores = cores
        self.version = version
        self.factory = factory
        self.surge = surge
        self.event = event


class ControlPlane:
    """Keeps the live deployment converged on the applied specs."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        deployment: Deployment,
        reconcile_interval: float = 0.05,
        cold_start: float = 0.1,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if reconcile_interval <= 0:
            raise ConfigError(
                f"reconcile_interval must be > 0, got {reconcile_interval!r}"
            )
        if cold_start < 0:
            raise ConfigError(f"cold_start must be >= 0, got {cold_start!r}")
        self.sim = sim
        self.cluster = cluster
        self.deployment = deployment
        self.reconcile_interval = reconcile_interval
        self.cold_start = cold_start
        self.metrics = metrics
        self.scheduler = Scheduler(cluster)

        self._specs: Dict[str, ReplicaSpec] = {}
        self._desired: Dict[str, int] = {}
        self._ordinals: Dict[str, int] = {}
        self._versions: Dict[str, str] = {}  # instance name -> version
        self._pending: Dict[str, List[_Pending]] = {}
        self._surge: Dict[str, Set[str]] = {}  # canary cohort names
        self._draining: Set[str] = set()
        self._replacements_owed: Dict[str, int] = {}

        #: Controller action log (SpanEvents on the simulated timeline).
        self.events: List[SpanEvent] = []
        self.reconciles = 0
        self.placements = 0
        self.reschedules = 0
        self.retirements = 0
        self.pending_placements = 0  # scheduling failures (retried)
        self._started = False
        self.stop_at: Optional[float] = None

    # Event/metric plumbing ----------------------------------------------

    def _event(self, name: str, **attrs) -> None:
        self.events.append(SpanEvent(self.sim.now, name, attrs))

    def _count(self, metric: str, **labels) -> None:
        if self.metrics is not None:
            self.metrics.counter(metric, **labels).inc()

    def _gauge(self, metric: str, value: float, **labels) -> None:
        if self.metrics is not None:
            self.metrics.gauge(metric, **labels).set(value)

    # Spec management ----------------------------------------------------

    def apply(self, spec: ReplicaSpec) -> List[str]:
        """Register *spec* and place its replicas immediately (initial
        deploys happen before traffic, so no cold-start delay). Returns
        the created replica names."""
        if spec.service in self._specs:
            raise ConfigError(
                f"service {spec.service!r} already has a spec; "
                "use set_replicas/set_version to change it"
            )
        self._specs[spec.service] = spec
        self._desired[spec.service] = spec.replicas
        self._pending[spec.service] = []
        self._surge[spec.service] = set()
        names = []
        for _ in range(spec.replicas):
            names.append(self._create_now(spec))
        self._event(
            "apply", service=spec.service, replicas=spec.replicas,
            version=spec.version, placement=spec.placement.strategy,
        )
        return names

    def spec(self, service: str) -> ReplicaSpec:
        try:
            return self._specs[service]
        except KeyError:
            raise ConfigError(
                f"no spec applied for service {service!r}; "
                f"applied: {sorted(self._specs)}"
            ) from None

    def set_replicas(self, service: str, count: int) -> None:
        """Change the desired replica count (the HPA's entry point);
        the next reconcile closes the gap."""
        spec = self.spec(service)
        if count < 1:
            raise ConfigError(f"replicas must be >= 1, got {count}")
        if count == self._desired[service]:
            return
        self._event(
            "scale", service=service,
            from_replicas=self._desired[service], to_replicas=count,
        )
        self._count("controlplane_scale_events_total", service=service)
        self._desired[service] = count

    def set_version(self, service: str, version: str, factory=None) -> None:
        """Declare a new target version (rolling update): the
        reconciler replaces stale replicas one at a time."""
        spec = self.spec(service)
        if factory is not None:
            spec.factory = factory
        if version == spec.version:
            return
        self._event(
            "rollout", service=service,
            from_version=spec.version, to_version=version,
        )
        self._count("controlplane_rollouts_total", service=service)
        spec.version = version

    # Introspection ------------------------------------------------------

    def desired(self, service: str) -> int:
        return self._desired[service]

    def _live(self, service: str) -> List:
        """Registered replicas, or [] before the first one lands."""
        try:
            return list(self.deployment.instances(service))
        except TopologyError:
            return []

    def managed_replicas(self, service: str) -> List:
        """Live (registered) replicas of *service*, canaries included."""
        return self._live(service)

    def ready_replicas(self, service: str) -> List:
        """Live replicas in state ``up``, excluding the canary cohort."""
        surge = self._surge.get(service, set())
        return [
            r
            for r in self._live(service)
            if r.state == STATE_UP and r.name not in surge
        ]

    def versions(self, service: str) -> Dict[str, str]:
        """Version of every live replica (canaries included)."""
        return {
            r.name: self._versions.get(r.name, "")
            for r in self._live(service)
        }

    def version_of(self, name: str) -> str:
        return self._versions.get(name, "")

    def core_seconds(self, service: str) -> float:
        """Provisioned core-seconds of *service* so far — the cost side
        of scaling — integrated from :attr:`events`: each replica holds
        ``cores_per_replica`` cores from its ``place`` until its
        ``retire``, ``start_cancelled`` or ``start_aborted`` (or until
        now while it lives), so cold start and drain count as cost."""
        placed: Dict[str, float] = {}
        held = 0.0
        for event in self.events:
            if event.attrs.get("service") != service:
                continue
            if event.name == "place":
                placed[event.attrs["replica"]] = event.t
            elif event.name in ("retire", "start_cancelled", "start_aborted"):
                held += event.t - placed.pop(event.attrs["replica"])
        held += sum(self.sim.now - t for t in placed.values())
        return held * self.spec(service).cores_per_replica

    # Canary cohort (used by CanaryRollout) ------------------------------

    def add_canaries(
        self, service: str, version: str, factory, count: int = 1
    ) -> List[str]:
        """Surge *count* replicas of a candidate *version* next to the
        stable set (cold-start applies). They take their traffic share
        through the tier's balancer but never count against the desired
        replicas until promoted."""
        spec = self.spec(service)
        names = []
        for _ in range(count):
            pending = self._begin_start(
                spec, version=version, factory=factory, surge=True
            )
            if pending is not None:
                names.append(pending.name)
        return names

    def canary_names(self, service: str) -> Set[str]:
        return set(self._surge.get(service, set()))

    def canary_instances(self, service: str) -> List:
        surge = self._surge.get(service, set())
        return [
            r for r in self._live(service) if r.name in surge
        ]

    def remove_canaries(self, service: str) -> None:
        """Roll the canary cohort back: cancel the ones still cold-
        starting, drain the live ones (they retire once idle)."""
        surge = self._surge.get(service, set())
        for pending in list(self._pending.get(service, [])):
            if pending.surge:
                self._cancel_pending(pending)
        for inst in self.canary_instances(service):
            if inst.state == STATE_UP:
                inst.start_draining()
                self._draining.add(inst.name)
                self._event("drain", service=service, replica=inst.name,
                            reason="canary_rollback")
        self._count("controlplane_rollbacks_total", service=service)

    def promote_canaries(self, service: str) -> None:
        """Fold the canary cohort into the stable set: its replicas now
        count toward desired, and the reconciler's rolling step replaces
        the remaining stale-version replicas."""
        self._surge.get(service, set()).clear()

    # Replica lifecycle ---------------------------------------------------

    def _next_name(self, service: str) -> str:
        ordinal = self._ordinals.get(service, 0)
        self._ordinals[service] = ordinal + 1
        return f"{service}-{ordinal}"

    def _occupied_machines(self, service: str) -> List[str]:
        """Machines hosting live or pending replicas of *service*."""
        occupied = [
            r.machine_name
            for r in self._live(service)
            if r.state != STATE_DOWN
        ]
        occupied.extend(p.machine.name for p in self._pending[service])
        return occupied

    def _create_now(self, spec: ReplicaSpec) -> str:
        """Place and materialise one replica synchronously (initial
        deploy)."""
        name = self._next_name(spec.service)
        machine = self.scheduler.place(
            spec, self._occupied_machines(spec.service)
        )
        cores = machine.allocate(name, spec.cores_per_replica)
        instance = spec.factory(name, machine, cores, spec.version)
        self.deployment.add_instance(instance)
        self._versions[name] = spec.version
        self.placements += 1
        self._count("controlplane_placements_total", service=spec.service)
        self._event(
            "place", service=spec.service, replica=name,
            machine=machine.name, version=spec.version,
        )
        return name

    def _begin_start(
        self, spec: ReplicaSpec, version: str, factory, surge: bool
    ) -> Optional[_Pending]:
        """Reserve cores now, materialise after the cold-start delay.
        Returns ``None`` when nothing schedulable fits (retried next
        reconcile)."""
        try:
            machine = self.scheduler.place(
                spec, self._occupied_machines(spec.service)
            )
        except SchedulingError as exc:
            self.pending_placements += 1
            self._count(
                "controlplane_unschedulable_total", service=spec.service
            )
            self._event(
                "unschedulable", service=spec.service, reason=str(exc)
            )
            return None
        name = self._next_name(spec.service)
        cores = machine.allocate(name, spec.cores_per_replica)
        pending = _Pending(
            name, spec.service, machine, cores, version, factory, surge
        )
        pending.event = self.sim.schedule(
            self.cold_start, self._finish_start, pending,
            priority=PRIORITY_MONITOR,
        )
        self._pending[spec.service].append(pending)
        self.placements += 1
        owed = self._replacements_owed.get(spec.service, 0)
        if owed > 0 and not surge:
            self._replacements_owed[spec.service] = owed - 1
            self.reschedules += 1
            self._count(
                "controlplane_reschedules_total", service=spec.service
            )
        self._count("controlplane_placements_total", service=spec.service)
        self._event(
            "place", service=spec.service, replica=name,
            machine=machine.name, version=version, surge=surge,
            cold_start=self.cold_start,
        )
        return pending

    def _finish_start(self, pending: _Pending) -> None:
        """Cold start over: build and register the replica — unless its
        machine failed while it was starting."""
        self._pending[pending.service].remove(pending)
        if not pending.machine.up:
            pending.machine.release(pending.name)
            self._event(
                "start_aborted", service=pending.service,
                replica=pending.name, machine=pending.machine.name,
            )
            return
        instance = pending.factory(
            pending.name, pending.machine, pending.cores, pending.version
        )
        self.deployment.add_instance(instance)
        self._versions[pending.name] = pending.version
        if pending.surge:
            self._surge[pending.service].add(pending.name)
        self._event(
            "ready", service=pending.service, replica=pending.name,
            machine=pending.machine.name, version=pending.version,
            surge=pending.surge,
        )

    def _cancel_pending(self, pending: _Pending) -> None:
        self._pending[pending.service].remove(pending)
        self.sim.cancel(pending.event)
        pending.machine.release(pending.name)
        self._event(
            "start_cancelled", service=pending.service, replica=pending.name
        )

    def _retire(self, instance, reason: str) -> None:
        self.deployment.remove_instance(instance.name)
        self._draining.discard(instance.name)
        for surge in self._surge.values():
            surge.discard(instance.name)
        machine = self.cluster.machine(instance.machine_name)
        machine.release(instance.name)
        self.retirements += 1
        self._count(
            "controlplane_retirements_total", service=instance.tier
        )
        self._event(
            "retire", service=instance.tier, replica=instance.name,
            machine=instance.machine_name, reason=reason,
        )

    # Reconciliation ------------------------------------------------------

    def start(self, stop_at: Optional[float] = None) -> "ControlPlane":
        """Schedule the reconcile loop (monitor priority — the
        controller sees each timestamp's completions and faults, like
        the SLO alerter)."""
        if self._started:
            raise ConfigError("ControlPlane already started")
        self._started = True
        self.stop_at = stop_at
        self.sim.schedule(
            self.reconcile_interval, self._cycle, priority=PRIORITY_MONITOR
        )
        return self

    def _cycle(self) -> None:
        if self.stop_at is not None and self.sim.now > self.stop_at:
            return
        self.sim.schedule(
            self.reconcile_interval, self._cycle, priority=PRIORITY_MONITOR
        )
        self.reconciles += 1
        for service in sorted(self._specs):
            self._reconcile_service(service)

    def _reconcile_service(self, service: str) -> None:
        spec = self._specs[service]
        desired = self._desired[service]
        surge_names = self._surge[service]

        # 1. Dead replicas: retire and release, but never empty the tier
        #    (the balancer needs >= 1 registered instance to fast-fail
        #    against) — the last corpse waits for its replacement.
        replicas = self._live(service)
        for inst in [r for r in replicas if r.state == STATE_DOWN]:
            if inst.name not in self._draining:
                # Newly-observed death -> owe a replacement (canaries
                # excluded: their cohort is managed by the rollout).
                if inst.name not in surge_names:
                    self._replacements_owed[service] = (
                        self._replacements_owed.get(service, 0) + 1
                    )
                self._draining.add(inst.name)  # counted once
            if len(self._live(service)) > 1:
                self._retire(inst, reason="dead")

        live = self._live(service)
        ready = [
            r
            for r in live
            if r.state == STATE_UP and r.name not in surge_names
        ]
        pending_regular = [p for p in self._pending[service] if not p.surge]

        # 2. Missing replicas: schedule cold starts on surviving
        #    machines.
        missing = desired - len(ready) - len(pending_regular)
        # Stale replicas still serve while their replacement starts, so
        # they soften the gap — but dead/draining ones do not.
        for _ in range(missing):
            if self._begin_start(
                spec, spec.version, spec.factory, surge=False
            ) is None:
                break  # unschedulable now; retry next cycle

        # 3. Rolling update: when at strength, surge one replacement for
        #    one stale replica at a time.
        stale = [
            r for r in ready if self._versions.get(r.name) != spec.version
        ]
        if stale and missing <= 0 and not pending_regular:
            if len(ready) - desired <= 0:  # no surge in flight yet
                self._begin_start(
                    spec, spec.version, spec.factory, surge=False
                )

        # 4. Surplus: drain stale versions first, then newest ordinals.
        surplus = len(ready) - desired
        if surplus > 0:
            def drain_rank(inst):
                is_current = self._versions.get(inst.name) == spec.version
                return (is_current, -self._ordinal_of(inst.name))

            for inst in sorted(ready, key=drain_rank)[:surplus]:
                inst.start_draining()
                self._draining.add(inst.name)
                self._event(
                    "drain", service=service, replica=inst.name,
                    reason="stale_version"
                    if self._versions.get(inst.name) != spec.version
                    else "scale_down",
                )

        # 5. Draining replicas retire once idle (no queued, running, or
        #    dispatcher-tracked in-flight work); same never-empty guard
        #    as the dead path.
        for inst in [r for r in live if r.state == STATE_DRAINING]:
            if (
                inst.pending_dispatch == 0
                and inst.queued_jobs == 0
                and not inst._running
                and len(self._live(service)) > 1
            ):
                self._retire(inst, reason="drained")

        self._gauge(
            "controlplane_desired_replicas", desired, service=service
        )
        self._gauge(
            "controlplane_ready_replicas",
            len(self.ready_replicas(service)),
            service=service,
        )

    def _ordinal_of(self, name: str) -> int:
        try:
            return int(name.rsplit("-", 1)[1])
        except (IndexError, ValueError):
            return -1

    def __repr__(self) -> str:
        return (
            f"<ControlPlane services={sorted(self._specs)} "
            f"reconciles={self.reconciles} placements={self.placements}>"
        )
