"""Requests and jobs.

The paper's terminology (SSIII-A): an end-to-end *request* enters the
system at the client and traverses a tree of inter-microservice path
nodes; inside each microservice the unit of work is a *job* ("a request
in a microservice"). When a path node fans out, uqSim "makes a copy of
the job for each child node" — here, each copy is a fresh :class:`Job`
belonging to the same :class:`Request`.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .connections import Connection
    from .microservice import Microservice
    from .paths import ExecutionPath

# Terminal request outcomes. ``None`` means still in flight; every
# resolved request carries exactly one of these.
OUTCOME_OK = "ok"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_SHED = "shed"
OUTCOME_FAILED = "failed"
OUTCOMES = (OUTCOME_OK, OUTCOME_TIMEOUT, OUTCOME_SHED, OUTCOME_FAILED)


class Request:
    """One end-to-end user request.

    Latency is measured from :attr:`created_at` (client send) to
    :attr:`completed_at` (response received by the client), the quantity
    the paper's load-latency validation curves report. A resolved
    request additionally carries a terminal :attr:`outcome` (one of
    :data:`OUTCOMES`) and the number of :attr:`attempts` the resilience
    layer spent on it (1 without retries/hedges).
    """

    __slots__ = (
        "request_id",
        "request_type",
        "created_at",
        "completed_at",
        "size_bytes",
        "outcome",
        "attempts",
        "metadata",
    )

    _id_counter = itertools.count()

    def __init__(
        self,
        created_at: float,
        request_type: str = "default",
        size_bytes: float = 0.0,
    ) -> None:
        self.request_id = next(Request._id_counter)
        self.request_type = request_type
        self.created_at = created_at
        self.completed_at: Optional[float] = None
        self.size_bytes = size_bytes
        self.outcome: Optional[str] = None
        self.attempts = 0
        self.metadata: dict = {}

    @property
    def latency(self) -> Optional[float]:
        """End-to-end latency in seconds, or ``None`` while in flight."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.created_at

    @property
    def ok(self) -> bool:
        """True once the request resolved successfully."""
        return self.outcome == OUTCOME_OK

    def raise_for_outcome(self) -> None:
        """Raise the matching :class:`~repro.errors.RequestOutcomeError`
        if this request resolved with a non-``ok`` outcome (no-op while
        in flight or on success)."""
        from ..errors import RequestFailed, RequestShed, RequestTimeout

        if self.outcome in (None, OUTCOME_OK):
            return
        exc_type = {
            OUTCOME_TIMEOUT: RequestTimeout,
            OUTCOME_SHED: RequestShed,
            OUTCOME_FAILED: RequestFailed,
        }[self.outcome]
        raise exc_type(self)

    def __repr__(self) -> str:
        state = (
            f"done@{self.completed_at:.6f}" if self.completed_at is not None
            else "in-flight"
        )
        return f"<Request {self.request_id} {self.request_type} {state}>"


class Job:
    """One microservice's share of a request.

    A job is born when the dispatcher sends the request into a path
    node's microservice, walks that service's execution path stage by
    stage, and fires :attr:`on_complete` after its last stage, at which
    point the dispatcher advances the request through the path tree.
    """

    __slots__ = (
        "job_id",
        "request",
        "size_bytes",
        "connection",
        "service",
        "path",
        "stage_pos",
        "on_complete",
        "on_fail",
        "on_discard",
        "owner",
        "node",
        "cancelled",
        "created_at",
        "first_dispatch_at",
        "completed_at",
    )

    _id_counter = itertools.count()

    def __init__(
        self,
        request: Request,
        size_bytes: float = 0.0,
        connection: Optional["Connection"] = None,
    ) -> None:
        self.job_id = next(Job._id_counter)
        self.request = request
        self.size_bytes = size_bytes
        self.connection = connection
        self.service: Optional["Microservice"] = None
        self.path: Optional["ExecutionPath"] = None
        self.stage_pos = 0
        self.on_complete: Optional[Callable[["Job"], None]] = None
        # Fired when the owning instance crashes with this job in
        # flight or refuses it while down (resilience failure path).
        self.on_fail: Optional[Callable[["Job"], None]] = None
        # Fired on ANY job loss, including silent crash dispositions
        # that suppress on_fail. Internal resource reclamation (the
        # dispatcher frees a lost message's in-order delivery slot
        # here), never application-visible failure handling.
        self.on_discard: Optional[Callable[["Job"], None]] = None
        # What the callbacks act on, set by whoever made the job and
        # opaque here: the dispatcher's attempt and path node for a
        # node visit, or the message a network-processing service
        # carries. The callbacks themselves are then shared methods
        # bound once, not a closure made per job.
        self.owner = None
        self.node = None
        # Set by request cancellation (timeout / hedge loser): the job
        # may still be executing, but its completion must not propagate.
        self.cancelled = False
        self.created_at: Optional[float] = None
        self.first_dispatch_at: Optional[float] = None
        self.completed_at: Optional[float] = None

    @property
    def current_stage_id(self) -> int:
        """The stage id this job is queued at / executing in."""
        assert self.path is not None, "job has not been accepted by a service"
        return self.path.stage_ids[self.stage_pos]

    @property
    def remaining_stages(self) -> int:
        assert self.path is not None
        return len(self.path.stage_ids) - self.stage_pos

    @property
    def service_latency(self) -> Optional[float]:
        """Time spent inside the owning microservice (queueing + service)."""
        if self.completed_at is None or self.created_at is None:
            return None
        return self.completed_at - self.created_at

    def __repr__(self) -> str:
        where = self.service.name if self.service is not None else "?"
        return f"<Job {self.job_id} req={self.request.request_id} at {where}>"
