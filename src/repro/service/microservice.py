"""The microservice instance: application logic + execution model.

Paper SSIII-B: "uqSim models each individual microservice with two
orthogonal components: application logic and execution model." Here
they meet: a :class:`Microservice` owns the stages/paths (application
logic), an :class:`~repro.service.execution_models.ExecutionModel`
(threads), a pinned :class:`~repro.hardware.core.CoreSet`, and an
optional :class:`~repro.service.io.IoDevice`.

Dispatch is fully event-driven. Work starts when

* a job is accepted,
* a core is released,
* a worker finishes a stage (or returns from I/O), or
* a blocked connection is unblocked,

and each dispatch round greedily starts every (worker, core, batch)
triple it can find, draining later pipeline stages before earlier ones
so in-flight requests complete before new ones are admitted — the same
run-to-completion bias real event-driven servers exhibit.

A round looks only at stages whose ``may_be_ready`` flag is set. The
events that can expose a queued job set it (a push, a connection
unblock, the cancellation of a queued job); blocking only hides jobs
and a batch take only removes them, so the flag covers every ready
stage. A flagged stage is confirmed with the exact ``has_ready()``
before anything acts on it, and the flag is cleared when the answer is
no. While the core set has no free core a round starts nothing, but it
still claims and returns one worker per ready stage, deepest first, up
to the first refusal: those claims rotate a static thread pool's idle
list (which moves context-switch charges) and grow a dynamic pool, so
they are part of the simulated behaviour.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set

from ..engine import PRIORITY_COMPLETION, Event, Simulator
from ..errors import ConfigError, FaultError
from ..hardware.core import CoreSet, CpuCore
from .connections import Connection
from .execution_models import ExecutionModel, SimpleModel, Worker
from .io import IoDevice
from .job import Job
from .paths import ExecutionPath, PathSelector
from .stage import Stage

# Instance lifecycle states (fault injection / resilience layer).
STATE_UP = "up"
STATE_DRAINING = "draining"
STATE_DOWN = "down"


class Microservice:
    """One deployed instance of a microservice model."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        stages: Sequence[Stage],
        selector: PathSelector,
        cores: CoreSet,
        model: Optional[ExecutionModel] = None,
        machine_name: str = "",
        tier: str = "",
        io_device: Optional[IoDevice] = None,
    ) -> None:
        if not stages:
            raise ConfigError(f"microservice {name!r} needs at least one stage")
        self.name = name
        self.sim = sim
        self.selector = selector
        self.cores = cores
        self.model = model or SimpleModel()
        self.machine_name = machine_name
        self.tier = tier or name
        self.io_device = io_device

        self._stages: Dict[int, Stage] = {}
        for stage in stages:
            if stage.stage_id in self._stages:
                raise ConfigError(
                    f"microservice {name!r}: duplicate stage_id {stage.stage_id}"
                )
            self._stages[stage.stage_id] = stage
        for path in selector.paths:
            missing = [s for s in path.stage_ids if s not in self._stages]
            if missing:
                raise ConfigError(
                    f"microservice {name!r}: path {path.name!r} references "
                    f"unknown stages {missing}"
                )
        # Dispatch scan order: later pipeline stages first (descending
        # stage id — stage ids are pipeline-ordered by convention).
        self._scan_order: List[Stage] = [
            self._stages[sid] for sid in sorted(self._stages, reverse=True)
        ]

        # Only a probabilistic path choice draws, so only such a
        # service derives the stream (streams are named, not ordered,
        # so skipping one moves no other draw).
        self._rng = (
            sim.random.stream(f"service/{name}") if selector.draws else None
        )
        # Stage cost draws come from block-buffered samplers on
        # dedicated per-stage streams — the hottest stochastic path in
        # the simulator (one to three draws per executed batch).
        for sid, stage in self._stages.items():
            stage.attach_samplers(sim.random, f"service/{name}/stage{sid}")
        self._subscribed_conns: Set[int] = set()
        self._in_dispatch = False
        self.cores.on_release(self._kick)
        # Bound once: every batch's completion event holds it.
        self._on_cpu_done = self._on_cpu_done

        # Lifecycle (fault injection): up -> draining/down -> up.
        self.state = STATE_UP
        # Straggler degradation: all stage costs are multiplied by this.
        self.slow_factor = 1.0
        # The completion events of the batches currently on a core,
        # keyed by ``id(batch)`` (the batch list lives until its
        # completion deletes the entry), so a crash can cancel them and
        # reclaim cores/workers: each event's args are
        # ``(stage, batch, worker, core)``.
        self._running: Dict[int, Event] = {}

        # Telemetry.
        self.jobs_accepted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.crashes = 0
        # Optional MetricsRegistry (repro.telemetry.metrics): when set,
        # per-stage batch costs and job completions feed it. None keeps
        # the hot path at a single attribute check.
        self.metrics = None
        # In-flight node visits from the dispatcher's point of view:
        # incremented at instance selection (before the network hop),
        # decremented when the node's job completes. This is what
        # least-outstanding balancing must consult — accepted-minus-
        # completed lags by the network delay.
        self.pending_dispatch = 0
        self.latency_listeners: List[Callable[[Job], None]] = []

    # Introspection ------------------------------------------------------

    @property
    def stages(self) -> List[Stage]:
        return [self._stages[sid] for sid in sorted(self._stages)]

    def stage(self, stage_id: int) -> Stage:
        try:
            return self._stages[stage_id]
        except KeyError:
            raise ConfigError(
                f"microservice {self.name!r} has no stage {stage_id}"
            ) from None

    @property
    def queued_jobs(self) -> int:
        """Jobs waiting in any stage queue (not executing)."""
        return sum(len(stage.queue) for stage in self._stages.values())

    @property
    def frequency(self) -> float:
        return self.cores.frequency

    def set_frequency(self, frequency: float) -> float:
        """DVFS this instance's cores (power-management actuation)."""
        return self.cores.set_frequency(frequency)

    # Lifecycle (fault injection) ----------------------------------------

    @property
    def healthy(self) -> bool:
        """True when the instance may receive NEW work (state ``up``).

        Health-aware load balancers consult this to skip down and
        draining replicas.
        """
        return self.state == STATE_UP

    def crash(self, disposition: str = "fail") -> List[Job]:
        """Kill the instance: stop executing, lose the backlog.

        In-flight disposition: with ``"fail"`` every queued and
        executing job fires its ``on_fail`` callback (the upstream sees
        a reset connection and can retry); with ``"drop"`` jobs vanish
        silently (a network black hole — only a timeout surfaces it).
        Cores and workers held by executing batches are reclaimed
        immediately. Returns the killed jobs.
        """
        if disposition not in ("fail", "drop"):
            raise FaultError(
                f"unknown crash disposition {disposition!r}; "
                f"expected 'fail' or 'drop'"
            )
        if self.state == STATE_DOWN:
            return []
        self.state = STATE_DOWN
        self.crashes += 1
        killed: List[Job] = []
        for event in list(self._running.values()):
            _stage, batch, worker, core = event.args
            self.sim.cancel(event)
            self.model.release_worker(worker)
            if core is not None:
                self.cores.release(core, self.sim.now)
            killed.extend(batch)
        self._running.clear()
        for stage in self._stages.values():
            killed.extend(stage.queue.drain())
        for job in killed:
            self._fail_job(job, notify=disposition == "fail")
        return killed

    def start_draining(self) -> None:
        """Stop taking new work (balancers skip this instance) while
        letting already-admitted jobs run to completion."""
        if self.state == STATE_DOWN:
            raise FaultError(f"{self.name!r} is down; recover before draining")
        self.state = STATE_DRAINING

    def recover(self) -> None:
        """Bring a down/draining instance back up and resume dispatch."""
        self.state = STATE_UP
        self._kick()

    def degrade(self, slow_factor: float) -> None:
        """Make the instance a straggler: multiply every stage cost by
        *slow_factor* (>= 1). ``1.0`` restores nominal speed."""
        if slow_factor < 1.0:
            raise FaultError(f"slow_factor must be >= 1, got {slow_factor!r}")
        self.slow_factor = float(slow_factor)

    def cancel_job(self, job: Job) -> bool:
        """Withdraw a queued *job* (request cancellation); True if the
        job was still queued and its slot has been reclaimed. Executing
        jobs cannot be reclaimed — their completion is suppressed via
        ``job.cancelled`` instead."""
        if job.path is None or job.stage_pos >= len(job.path.stage_ids):
            return False
        stage = self._stages[job.current_stage_id]
        if not stage.queue.remove(job):
            return False
        # A hidden job at the head of a connection's subqueue may have
        # been hiding the block holder's job behind it.
        stage.may_be_ready = True
        return True

    def _fail_job(self, job: Job, notify: bool = True) -> None:
        self.jobs_failed += 1
        # Resource reclamation runs even for silent ("drop") losses;
        # only the application-visible failure callback is gated.
        if job.on_discard is not None and not job.cancelled:
            job.on_discard(job)
        if notify and job.on_fail is not None and not job.cancelled:
            job.on_fail(job)

    # Job intake ---------------------------------------------------------

    def accept(
        self,
        job: Job,
        path_id: Optional[int] = None,
        path_name: Optional[str] = None,
    ) -> None:
        """Admit *job*: select its execution path and queue stage 0.

        A down instance refuses the job outright (connection refused):
        the job fails without consuming any resources.
        """
        if self.state == STATE_DOWN:
            self._fail_job(job)
            return
        job.service = self
        job.path = self.selector.select(self._rng, path_id, path_name)
        job.stage_pos = 0
        job.created_at = self.sim.now
        self.jobs_accepted += 1
        if job.connection is not None and job.connection.conn_id not in self._subscribed_conns:
            self._subscribed_conns.add(job.connection.conn_id)
            job.connection.on_unblock(self._on_unblock)
        self._enqueue(job)
        self._kick()

    def _enqueue(self, job: Job) -> None:
        stage = self._stages[job.path.stage_ids[job.stage_pos]]
        stage.may_be_ready = True
        stage.queue.push(job)

    def _on_unblock(self) -> None:
        """A subscribed connection changed holder: its queued jobs may
        have become visible in any stage."""
        for stage in self._scan_order:
            stage.may_be_ready = True
        self._kick()

    # Dispatch loop ------------------------------------------------------

    def _kick(self) -> None:
        """Run a dispatch round unless one is already running."""
        if self._in_dispatch or self.state == STATE_DOWN:
            return
        self._in_dispatch = True
        cores = self.cores
        model = self.model
        try:
            while True:
                for stage in self._scan_order:
                    if not stage.may_be_ready:
                        continue
                    if not stage.queue.has_ready():
                        stage.may_be_ready = False
                        continue
                    if cores.free_count:
                        if not self._start_execution(stage):
                            return  # no worker: no later stage can start
                        break  # rescan from the deepest stage
                    # No core is free, so nothing starts; claim and
                    # return a worker exactly as a start that finds no
                    # core would.
                    worker = model.acquire_worker()
                    if worker is None:
                        return
                    model.release_worker(worker)
                else:
                    return
        finally:
            self._in_dispatch = False

    def _start_execution(self, stage: Stage) -> bool:
        """Start one batch on *stage*, whose queue has a ready job and
        whose core set has a free core; False if no worker is free."""
        model = self.model
        worker = model.acquire_worker()
        if worker is None:
            return False
        now = self.sim.now
        core = self.cores.try_acquire(now)
        batch = stage.queue.next_batch()
        for job in batch:
            if job.first_dispatch_at is None:
                job.first_dispatch_at = now
        cost = stage.compute_cost(batch, core.frequency)
        cost += model.dispatch_overhead(worker, core)
        cost *= self.slow_factor
        stage.record(len(batch), cost)
        if self.metrics is not None:
            self.metrics.histogram(
                "stage_cost_seconds", service=self.name, stage=stage.name
            ).observe(cost)
        event = self.sim.schedule(
            cost,
            self._on_cpu_done,
            stage,
            batch,
            worker,
            core,
            priority=PRIORITY_COMPLETION,
        )
        self._running[id(batch)] = event
        return True

    def _on_cpu_done(
        self,
        stage: Stage,
        batch: List[Job],
        worker: Worker,
        core: CpuCore,
    ) -> None:
        del self._running[id(batch)]
        if stage.io is not None:
            if self.io_device is None:
                raise ConfigError(
                    f"stage {stage.name!r} of {self.name!r} has an io cost "
                    f"but the instance has no io_device"
                )
            # The core frees during I/O while the worker stays blocked.
            worker.blocked = True
            io_time = stage.io_cost(batch)
            self.cores.release(core, self.sim.now)
            self.io_device.submit(
                io_time, lambda: self._finish_stage(stage, batch, worker)
            )
            return
        self._finish_stage(stage, batch, worker, core)

    def _finish_stage(
        self,
        stage: Stage,
        batch: List[Job],
        worker: Worker,
        core: Optional[CpuCore] = None,
    ) -> None:
        # Advance jobs BEFORE releasing the core: the release callback
        # re-enters dispatch, and the freshly finished jobs must already
        # sit in their next stage queue so the scan's later-stage-first
        # preference sees them (run-to-completion bias).
        self.model.release_worker(worker)
        if self.state == STATE_DOWN:
            # The instance crashed while this batch was blocked on I/O
            # (CPU batches are cancelled outright): the results are lost.
            for job in batch:
                self._fail_job(job)
            if core is not None:
                self.cores.release(core, self.sim.now)
            return
        for job in batch:
            job.stage_pos += 1
            if job.stage_pos < len(job.path.stage_ids):
                self._enqueue(job)
            else:
                self._complete_job(job)
        if core is None:
            self._kick()
            return
        # The release re-enters dispatch, which runs to a fixed point.
        # After it, each busy core's last worker is the one running on
        # it, so a second round could only rotate idle workers no core
        # ran last (and a dynamic pool has already spawned its thread):
        # it would change nothing.
        self.cores.release(core, self.sim.now)

    def _complete_job(self, job: Job) -> None:
        job.completed_at = self.sim.now
        self.jobs_completed += 1
        if self.metrics is not None:
            self.metrics.counter("jobs_completed_total", service=self.name).inc()
            if job.service_latency is not None:
                self.metrics.histogram(
                    "job_latency_seconds", service=self.name
                ).observe(job.service_latency)
        if job.cancelled:
            # The owning request was cancelled (timeout / hedge loser)
            # after this job reached a core: the work is spent, but the
            # result must not propagate or pollute latency telemetry.
            return
        for listener in self.latency_listeners:
            listener(job)
        if job.on_complete is not None:
            job.on_complete(job)

    # Telemetry ----------------------------------------------------------

    def on_job_complete(self, listener: Callable[[Job], None]) -> None:
        """Register a per-job completion listener (latency recorders)."""
        self.latency_listeners.append(listener)

    def utilization(self, now: float, since: float = 0.0) -> float:
        return self.cores.utilization(now, since)

    def __repr__(self) -> str:
        return (
            f"<Microservice {self.name} stages={len(self._stages)} "
            f"cores={len(self.cores)} model={self.model!r}>"
        )
