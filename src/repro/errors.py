"""Exception hierarchy for the uqSim reproduction.

All errors raised by the library derive from :class:`ReproError`, so
callers can catch a single base class. Sub-classes mark the subsystem
that detected the problem; configuration errors additionally carry the
offending file/section where available.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SimulationError(ReproError):
    """The discrete-event engine detected an inconsistent state.

    Examples: scheduling an event in the past, running a simulator that
    was already stopped, or an event handler corrupting the clock.
    """


class SimulationAborted(SimulationError):
    """A :meth:`Simulator.run` guardrail tripped mid-run.

    Raised when a run exceeds its ``wall_clock_budget`` or its
    ``max_live_events`` bound, instead of hanging or exhausting memory.
    Carries a partial-progress snapshot so the caller can report how
    far the simulation got: ``clock`` (simulated seconds), ``events_processed``
    (since the simulator was built), ``queue_depth`` (live events still
    pending) and ``wall_clock`` (real seconds spent in this run).
    """

    def __init__(
        self,
        reason: str,
        *,
        clock: float,
        events_processed: int,
        queue_depth: int,
        wall_clock: float,
    ) -> None:
        self.reason = reason
        self.clock = clock
        self.events_processed = events_processed
        self.queue_depth = queue_depth
        self.wall_clock = wall_clock
        super().__init__(
            f"simulation aborted ({reason}) at t={clock:.6f}s after "
            f"{events_processed} events ({queue_depth} still queued, "
            f"{wall_clock:.2f}s wall clock)"
        )


class AuditError(SimulationError):
    """The end-of-run conservation audit found a broken invariant.

    Every generated request must be accounted for exactly once
    (``ok + timeout + shed + failed + in-flight``) and the clock must
    never run backwards; a violation means the simulation lost or
    double-counted work, so its statistics cannot be trusted.
    """


class ConfigError(ReproError):
    """A configuration input (JSON spec or programmatic builder) is invalid.

    Carries an optional ``source`` describing the file or section the
    error came from, so that multi-file specs (service.json, graph.json,
    path.json, machines.json, client.json) produce actionable messages.
    """

    def __init__(self, message: str, *, source: str | None = None) -> None:
        self.source = source
        if source is not None:
            message = f"{source}: {message}"
        super().__init__(message)


class ResourceError(ReproError):
    """A hardware resource request cannot be satisfied.

    Raised when a deployment pins more threads than a machine has cores,
    references an unknown machine, or double-books a dedicated core.
    """


class SchedulingError(ResourceError):
    """The control-plane scheduler cannot place a replica.

    Raised when no schedulable machine has enough free cores for a
    replica spec (the replica stays *pending* and the reconciler
    retries), or when a placement request is malformed.
    """


class TopologyError(ReproError):
    """The inter-microservice graph or path tree is malformed.

    Examples: a path node referencing an unknown microservice or
    execution path, a cyclic blocking dependency, or fan-in that can
    never be satisfied.
    """


class WorkloadError(ReproError):
    """A workload definition cannot be realised (bad rate, empty mix...)."""


class ShardingError(ReproError):
    """The sharded parallel simulation core detected a broken contract.

    Examples: a cross-shard message stamped earlier than the sender's
    conservative lookahead permits, a shard plan whose zero-lookahead
    (loopback) edges span shards, or a worker process that died
    mid-window. Sharding problems are always *configuration or
    engine* problems — a model that runs under ``shards=1`` never
    raises this.
    """


class DistributionError(ReproError):
    """A processing-time distribution is invalid (negative scale, empty
    histogram, probabilities that do not sum to one...)."""


class PartialSweepError(ReproError):
    """Some sweep items failed: raised, crashed their quarantine
    worker, or timed out.

    Raised by :func:`repro.runner.parallel_map` (``failures="collect"``)
    only after every item has had its chance: ``results`` is the full
    in-order result list with an :class:`~repro.runner.ItemFailure` in
    each failed slot, and ``failures`` lists just the failed ones.
    Callers that can live with holes catch this and keep ``results``;
    journaled sweeps resume later and recompute only the holes.
    """

    def __init__(self, failures, results) -> None:
        self.failures = list(failures)
        self.results = results
        detail = "; ".join(
            f"item[{f.index}] {f.item!r}: {f.kind} after "
            f"{f.attempts} attempt(s)"
            for f in self.failures[:4]
        )
        if len(self.failures) > 4:
            detail += f"; ... {len(self.failures) - 4} more"
        super().__init__(
            f"{len(self.failures)} of {len(results)} sweep items failed "
            f"({detail})"
        )


class WorkerCrashError(ReproError):
    """A pool worker died (or hung past its timeout) running one item.

    Raised in fail-fast mode (``failures="raise"``) once the item's
    lone quarantine run crashed too, or it timed out; carries the
    structured :class:`~repro.runner.ItemFailure` as ``failure`` for
    attribution.
    """

    def __init__(self, failure) -> None:
        self.failure = failure
        super().__init__(
            f"worker {failure.kind} on item[{failure.index}] "
            f"{failure.item!r} after {failure.attempts} attempt(s): "
            f"{failure.error}"
        )


class FaultError(ReproError):
    """A fault plan cannot be realised.

    Examples: a fault event targeting an unknown instance or machine,
    a negative injection time, a recovery scheduled before its crash,
    or an unknown fault kind in faults.json.
    """


class RequestOutcomeError(ReproError):
    """Base class for errors describing a request's terminal outcome.

    Raised by :meth:`repro.service.Request.raise_for_outcome` (and
    closed-loop drivers that want failures to be loud) when a request
    resolved with a non-``ok`` outcome. Carries the offending request
    as ``request``.
    """

    def __init__(self, request, message: str | None = None) -> None:
        self.request = request
        super().__init__(
            message
            or f"request {request.request_id} resolved {request.outcome!r}"
        )


class RequestTimeout(RequestOutcomeError):
    """The request exceeded its resilience-policy timeout and was
    cancelled (outcome ``timeout``): every queued job was withdrawn and
    its connections reclaimed before the deadline response."""


class RequestShed(RequestOutcomeError):
    """Admission control refused the request up front (outcome
    ``shed``): queue-length or deadline-based load shedding decided the
    request could not meet its service objective."""


class RequestFailed(RequestOutcomeError):
    """The request failed mid-flight (outcome ``failed``): an instance
    crashed while holding its job, a down instance refused it, or an
    open circuit breaker rejected the hop."""
