"""Stage queues: single, socket, and epoll.

Paper SSIII-B, with memcached (Listing 1) as the canonical example:

* ``single`` — "queues simply store all jobs in one queue"; no
  per-connection structure, used by processing/send stages.
* ``socket`` — per-connection subqueues; a batch returns "the first N
  jobs from a single ready connection at a time" (a ``read()`` on one
  socket).
* ``epoll`` — per-connection subqueues; a batch "returns the first N
  jobs of each active subqueue" (one ``epoll_wait`` covering every
  readable connection).

Jobs whose connection is *blocked* (http/1.1 receive-side blocking, see
:mod:`repro.service.connections`) are invisible: their subqueue is not
"ready" and does not contribute to batches until unblocked.
"""

from __future__ import annotations

import abc
from collections import OrderedDict, deque
from typing import Deque, List, Optional

from ..errors import ConfigError
from .job import Job

_NO_CONNECTION_KEY = -1


def _conn_key(job: Job) -> int:
    return job.connection.conn_id if job.connection is not None else _NO_CONNECTION_KEY


def _is_blocked(job: Job) -> bool:
    """A job is hidden while its connection is blocked by a *different*
    request. The block holder's own jobs stay visible — they must keep
    flowing so the request can complete and lift the block."""
    connection = job.connection
    if connection is None:
        return False
    holder = connection.holder
    return holder is not None and holder != job.request.request_id


class StageQueue(abc.ABC):
    """Interface every stage queue implements."""

    @abc.abstractmethod
    def push(self, job: Job) -> None:
        """Enqueue a job."""

    @abc.abstractmethod
    def next_batch(self) -> List[Job]:
        """Pop and return the next batch of ready jobs ([] if none)."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Total queued jobs, including ones hidden by blocking."""

    @abc.abstractmethod
    def has_ready(self) -> bool:
        """Whether any job is currently eligible to be batched."""

    @abc.abstractmethod
    def remove(self, job: Job) -> bool:
        """Withdraw a queued job (request cancellation); True if found.

        A job already handed out by :meth:`next_batch` is executing and
        cannot be reclaimed — callers get ``False`` and must let it run
        to (suppressed) completion.
        """

    @abc.abstractmethod
    def drain(self) -> List[Job]:
        """Pop and return ALL queued jobs, blocked ones included.

        Used by instance crash handling: a dead process loses its whole
        backlog at once, visibility rules notwithstanding.
        """


class SingleQueue(StageQueue):
    """One FIFO for all jobs (no per-connection structure, no batching
    by default — ``batch_limit`` > 1 opts in).

    Blocked-connection jobs are skipped in place: ready jobs keep FIFO
    order among themselves, hidden ones retain their positions until
    their connection unblocks.
    """

    def __init__(self, batch_limit: int = 1) -> None:
        if batch_limit < 1:
            raise ConfigError(f"batch_limit must be >= 1, got {batch_limit}")
        self.batch_limit = batch_limit
        self._fifo: Deque[Job] = deque()

    def push(self, job: Job) -> None:
        self._fifo.append(job)

    def next_batch(self) -> List[Job]:
        batch: List[Job] = []
        skipped: Optional[List[Job]] = None
        while self._fifo and len(batch) < self.batch_limit:
            job = self._fifo.popleft()
            if _is_blocked(job):
                skipped = skipped or []
                skipped.append(job)
            else:
                batch.append(job)
        if skipped:
            # Hidden jobs go back to the front, preserving their order.
            self._fifo.extendleft(reversed(skipped))
        return batch

    def __len__(self) -> int:
        return len(self._fifo)

    def has_ready(self) -> bool:
        for job in self._fifo:
            if not _is_blocked(job):
                return True
        return False

    def remove(self, job: Job) -> bool:
        try:
            self._fifo.remove(job)
        except ValueError:
            return False
        return True

    def drain(self) -> List[Job]:
        jobs = list(self._fifo)
        self._fifo.clear()
        return jobs

    def __repr__(self) -> str:
        return f"<SingleQueue depth={len(self)}>"


class _SubqueueMixin:
    """Shared per-connection subqueue bookkeeping for socket/epoll."""

    def __init__(self) -> None:
        # OrderedDict preserves arrival order of connections, which both
        # round-robin fairness and determinism rely on.
        self._subqueues: "OrderedDict[int, Deque[Job]]" = OrderedDict()

    def _push(self, job: Job) -> None:
        key = _conn_key(job)
        queue = self._subqueues.get(key)
        if queue is None:
            queue = deque()
            self._subqueues[key] = queue
        queue.append(job)

    def _total(self) -> int:
        return sum(len(q) for q in self._subqueues.values())

    def _ready_keys(self) -> List[int]:
        ready = []
        for key, queue in self._subqueues.items():
            if not queue:
                continue
            if _is_blocked(queue[0]):
                continue
            ready.append(key)
        return ready

    def has_ready(self) -> bool:
        for queue in self._subqueues.values():
            if queue and not _is_blocked(queue[0]):
                return True
        return False

    def _gc(self, key: int) -> None:
        if not self._subqueues[key]:
            del self._subqueues[key]

    def _remove(self, job: Job) -> bool:
        key = _conn_key(job)
        queue = self._subqueues.get(key)
        if queue is None:
            return False
        try:
            queue.remove(job)
        except ValueError:
            return False
        self._gc(key)
        return True

    def _drain(self) -> List[Job]:
        jobs = [job for queue in self._subqueues.values() for job in queue]
        self._subqueues.clear()
        return jobs


class SocketQueue(_SubqueueMixin, StageQueue):
    """``socket_read``-style queue: batch from ONE ready connection.

    Connections are served round-robin so a hot connection cannot
    starve the others, mirroring a reactor looping over readable fds.
    """

    def __init__(self, batch_limit: int = 16) -> None:
        _SubqueueMixin.__init__(self)
        if batch_limit < 1:
            raise ConfigError(f"batch_limit must be >= 1, got {batch_limit}")
        self.batch_limit = batch_limit

    def push(self, job: Job) -> None:
        self._push(job)

    def next_batch(self) -> List[Job]:
        ready = self._ready_keys()
        if not ready:
            return []
        # Round-robin: serve the oldest ready connection, then rotate it
        # to the back so the next batch favours a different one.
        key = ready[0]
        queue = self._subqueues[key]
        batch: List[Job] = []
        while queue and len(batch) < self.batch_limit:
            batch.append(queue.popleft())
        if queue:
            self._subqueues.move_to_end(key)
        else:
            self._gc(key)
        return batch

    def __len__(self) -> int:
        return self._total()

    def remove(self, job: Job) -> bool:
        return self._remove(job)

    def drain(self) -> List[Job]:
        return self._drain()

    def __repr__(self) -> str:
        return f"<SocketQueue conns={len(self._subqueues)} depth={len(self)}>"


class EpollQueue(_SubqueueMixin, StageQueue):
    """``epoll``-style queue: batch takes jobs from EVERY active
    connection at once.

    One batch corresponds to one ``epoll_wait`` invocation, whose cost
    grows with the number of returned events (modelled by the stage's
    per-job cost term) but is *amortised* across all of them — the exact
    effect that lets uqSim track real saturation where single-queue
    simulators like BigHouse cannot (paper SSIV-E).
    """

    def __init__(self, per_connection_limit: Optional[int] = 16) -> None:
        _SubqueueMixin.__init__(self)
        if per_connection_limit is not None and per_connection_limit < 1:
            raise ConfigError(
                f"per_connection_limit must be >= 1 or None, "
                f"got {per_connection_limit}"
            )
        self.per_connection_limit = per_connection_limit

    def push(self, job: Job) -> None:
        self._push(job)

    def next_batch(self) -> List[Job]:
        batch: List[Job] = []
        for key in self._ready_keys():
            queue = self._subqueues[key]
            taken = 0
            while queue and (
                self.per_connection_limit is None
                or taken < self.per_connection_limit
            ):
                batch.append(queue.popleft())
                taken += 1
            self._gc(key)
        return batch

    def __len__(self) -> int:
        return self._total()

    def remove(self, job: Job) -> bool:
        return self._remove(job)

    def drain(self) -> List[Job]:
        return self._drain()

    def __repr__(self) -> str:
        return f"<EpollQueue conns={len(self._subqueues)} depth={len(self)}>"


QUEUE_TYPES = {
    "single": SingleQueue,
    "socket": SocketQueue,
    "epoll": EpollQueue,
}


def make_queue(queue_type: str, parameter=None) -> StageQueue:
    """Factory used by the JSON config layer (service.json
    ``queue_type`` / ``queue_parameter`` fields).

    ``parameter`` follows the paper's Listing 1 conventions: for
    ``epoll`` it is ``[null, N]`` or ``[N]`` (per-connection event
    limit), for ``socket`` ``[N]`` (read batch limit), for ``single``
    ``null``.
    """
    if queue_type not in QUEUE_TYPES:
        raise ConfigError(
            f"unknown queue_type {queue_type!r}; expected one of "
            f"{sorted(QUEUE_TYPES)}"
        )
    values = [v for v in (parameter or []) if v is not None]
    if queue_type == "single":
        return SingleQueue(*([values[0]] if values else []))
    if queue_type == "socket":
        return SocketQueue(*([values[0]] if values else []))
    return EpollQueue(values[0] if values else 16)
