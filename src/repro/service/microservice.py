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
they are part of the simulated behaviour. A :class:`SimpleModel`'s
claims change nothing, so with no free core its round ends at once,
and its starts skip the dispatch overhead that is always 0.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set

from ..engine import PRIORITY_COMPLETION, Event, Simulator
from ..errors import ConfigError, FaultError
from ..hardware.core import CoreSet
from .connections import Connection
from .execution_models import ExecutionModel, SimpleModel
from .io import IoDevice
from .job import Job
from .paths import ExecutionPath, PathSelector
from .stage import Stage

# Instance lifecycle states (fault injection / resilience layer).
STATE_UP = "up"
STATE_DRAINING = "draining"
STATE_DOWN = "down"


class _Execution(Event):
    """One started batch, from its start to the end of its last phase.

    :meth:`Microservice._start_execution` makes it, and it is its own
    CPU completion event, whose only argument is the record itself. It
    stays in the service's ``_running`` until the batch is done, so a
    crash finds it in either phase; ``core`` is ``None`` once the batch
    has left its core for I/O.

    Being the event, the record adds no object that lives through an
    execution: a separate record was one more young container per
    batch in flight, and on a 500-leaf fan-out that was enough to set
    off a full collection every rep. The ``args`` the record points
    back through are dropped as soon as the completion runs or is
    cancelled, so the record is freed by reference counting.
    """

    __slots__ = ("stage", "batch", "worker", "core")


class Microservice:
    """One deployed instance of a microservice model.

    Each started batch is one execution record (stage, batch, worker
    and core), which is also the batch's CPU completion event and that
    event's only argument. The record stays in ``_running`` from start
    to done,
    I/O phase included, so :meth:`crash` fails every executing job and
    frees its worker at the crash instant. A CPU completion advances
    the jobs, frees the worker and frees the core in one handler; an
    I/O stage instead frees the core and hands the device a handler
    bound to the record. An instance with an I/O stage needs an
    ``io_device`` and is refused at construction without one.
    """

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
        for stage in stages:
            if stage.io is not None and io_device is None:
                raise ConfigError(
                    f"stage {stage.name!r} of {name!r} has an io cost "
                    f"but the instance has no io_device"
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
        # The execution model is settled here: a simple model's worker
        # claims and dispatch overhead change nothing, so the hot path
        # skips them (a thread pool's claims rotate its idle list).
        self._simple = isinstance(self.model, SimpleModel)
        self._subscribed_conns: Set[int] = set()
        self._in_dispatch = False
        self.cores.on_release(self._kick)
        # Bound once: every batch's completion event holds it, and
        # every connection this instance receives on subscribes it.
        self._on_cpu_done = self._on_cpu_done
        self._on_unblock = self._on_unblock
        self._push = sim.events.push

        # Lifecycle (fault injection): up -> draining/down -> up.
        self.state = STATE_UP
        # Straggler degradation: all stage costs are multiplied by this.
        self.slow_factor = 1.0
        # The executions in flight, CPU or I/O phase, in start order
        # (a dict used as an ordered set), so a crash can fail their
        # jobs and reclaim their workers and cores.
        self._running: Dict[_Execution, None] = {}

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
        Executing jobs include those of a batch blocked on I/O. Cores
        and workers held by executing batches are reclaimed
        immediately; an I/O operation in flight keeps its device
        channel until it completes, and that completion does nothing.
        Returns the killed jobs.
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
        for record in list(self._running):
            self.model.release_worker(record.worker)
            if record.core is not None:  # on a core: cancel the completion
                record.args = ()
                self.sim.cancel(record)
                self.cores.release(record.core, self.sim.now)
            killed.extend(record.batch)
        # A record still in I/O is lost: the device finishes the
        # operation (its channel stays busy until then) and the
        # completion finds the record gone.
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
        simple = self._simple
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
                    # No core is free, so nothing starts. A thread
                    # pool claims and returns a worker exactly as a
                    # start that finds no core would; a simple model's
                    # claim changes nothing, so it ends the round.
                    if simple:
                        return
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
        if not self._simple:
            cost += model.dispatch_overhead(worker, core)
        cost *= self.slow_factor
        stage.invocations += 1
        stage.jobs_processed += len(batch)
        stage.busy_time += cost
        if self.metrics is not None:
            self.metrics.histogram(
                "stage_cost_seconds", service=self.name, stage=stage.name
            ).observe(cost)
        record = _Execution(
            now + cost, self._on_cpu_done, (), PRIORITY_COMPLETION
        )
        record.args = (record,)
        record.stage = stage
        record.batch = batch
        record.worker = worker
        record.core = core
        self._push(record)
        self._running[record] = None
        return True

    def _on_cpu_done(self, record: _Execution) -> None:
        """The CPU phase of *record* is over: hand the batch to the I/O
        device, or advance its jobs and free the worker and the core."""
        # The run loop has unpacked the arguments; dropping them leaves
        # the record no cycle through itself.
        record.args = ()
        stage = record.stage
        batch = record.batch
        if stage.io is not None:
            # The core frees during I/O while the worker stays blocked;
            # the record stays in _running so a crash can find it.
            record.worker.blocked = True
            io_time = stage.io_cost(batch)
            core = record.core
            record.core = None
            self.cores.release(core, self.sim.now)
            self.io_device.submit(io_time, partial(self._on_io_done, record))
            return
        del self._running[record]
        self.model.release_worker(record.worker)
        # Advance jobs BEFORE releasing the core: the release callback
        # re-enters dispatch, and the freshly finished jobs must already
        # sit in their next stage queue so the scan's later-stage-first
        # preference sees them (run-to-completion bias).
        stages = self._stages
        for job in batch:
            pos = job.stage_pos + 1
            job.stage_pos = pos
            stage_ids = job.path.stage_ids
            if pos < len(stage_ids):
                following = stages[stage_ids[pos]]
                following.may_be_ready = True
                following.queue.push(job)
            else:
                self._complete_job(job)
        # The release re-enters dispatch, which runs to a fixed point.
        # After it, each busy core's last worker is the one running on
        # it, so a second round could only rotate idle workers no core
        # ran last (and a dynamic pool has already spawned its thread):
        # it would change nothing.
        self.cores.release(record.core, self.sim.now)

    def _on_io_done(self, record: _Execution) -> None:
        """The device finished *record*'s I/O: advance its jobs and free
        the worker. A record a crash took out of _running is lost, and
        its completion does nothing."""
        running = self._running
        if record not in running:
            return
        del running[record]
        self.model.release_worker(record.worker)
        for job in record.batch:
            job.stage_pos += 1
            if job.stage_pos < len(job.path.stage_ids):
                self._enqueue(job)
            else:
                self._complete_job(job)
        self._kick()

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
