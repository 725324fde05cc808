"""Execution models: simple and multi-threaded.

Paper SSIII-B: "Currently uqSim supports two models: simple and
multi-threaded. A simple model directly dispatches jobs onto hardware
resources like CPU, and is mainly used for simple (single stage)
services. Multi-threaded models add the abstraction of a thread or
process ... a job will be first dispatched to a thread, and the
microservice will search for adequate resources to execute the job, or
stall if no resources are available. The multi-threaded model captures
context switching and I/O blocking overheads."

The model hands out *workers*: a :class:`SimpleModel` has an unlimited
supply (the CPU cores are the only constraint), a
:class:`MultiThreadedModel` has a fixed — or dynamically grown —
complement of threads. A worker is held for the whole stage execution
including any I/O phase; the CPU core is held only for the compute
phase.
"""

from __future__ import annotations

import abc
import itertools
from typing import List, Optional

from ..errors import ConfigError, ResourceError


class Worker:
    """A thread/process context executing one stage batch at a time."""

    __slots__ = ("worker_id", "name", "busy", "blocked")

    _id_counter = itertools.count()

    def __init__(self, name: str) -> None:
        self.worker_id = next(Worker._id_counter)
        self.name = name
        self.busy = False
        self.blocked = False  # in an I/O phase (holds thread, not core)

    def __repr__(self) -> str:
        state = "blocked" if self.blocked else ("busy" if self.busy else "idle")
        return f"<Worker {self.name} {state}>"


class ExecutionModel(abc.ABC):
    """Concurrency policy of one microservice instance."""

    @abc.abstractmethod
    def acquire_worker(self) -> Optional[Worker]:
        """Claim an idle worker, or ``None`` if the service must stall."""

    @abc.abstractmethod
    def release_worker(self, worker: Worker) -> None:
        """Return a worker after its stage (and any I/O) completed."""

    @abc.abstractmethod
    def dispatch_overhead(self, worker: Worker, core) -> float:
        """Extra CPU seconds charged when *worker* starts on *core*
        (context-switch cost in the multi-threaded model)."""

    @property
    @abc.abstractmethod
    def concurrency(self) -> Optional[int]:
        """Max simultaneous stage executions (``None`` = unbounded)."""


class SimpleModel(ExecutionModel):
    """Jobs dispatch straight onto cores; no thread abstraction.

    Used for single-stage services (the network-processing service, the
    tail-at-scale leaf servers) where thread management adds nothing.
    """

    def __init__(self) -> None:
        self._pool: List[Worker] = []
        self._spawned = 0

    def acquire_worker(self) -> Optional[Worker]:
        if self._pool:
            worker = self._pool.pop()
        else:
            worker = Worker(f"simple-{self._spawned}")
            self._spawned += 1
        worker.busy = True
        return worker

    def release_worker(self, worker: Worker) -> None:
        worker.busy = False
        worker.blocked = False
        self._pool.append(worker)

    def dispatch_overhead(self, worker: Worker, core) -> float:
        return 0.0

    @property
    def concurrency(self) -> Optional[int]:
        return None

    def __repr__(self) -> str:
        return "SimpleModel()"


class MultiThreadedModel(ExecutionModel):
    """A static (or dynamically grown) pool of threads.

    ``context_switch`` seconds are charged whenever a core picks up a
    different thread than it ran last — the oversubscription penalty the
    paper attributes to the multi-threaded model. Dynamic spawning
    (``dynamic=True``) grows the pool up to ``max_threads`` when every
    existing thread is occupied, mimicking thread-per-request servers.
    """

    def __init__(
        self,
        num_threads: int,
        context_switch: float = 2e-6,
        dynamic: bool = False,
        max_threads: Optional[int] = None,
    ) -> None:
        if num_threads < 1:
            raise ConfigError(f"num_threads must be >= 1, got {num_threads}")
        if context_switch < 0:
            raise ConfigError(f"context_switch must be >= 0, got {context_switch}")
        if dynamic:
            if max_threads is None or max_threads < num_threads:
                raise ConfigError(
                    "dynamic spawning needs max_threads >= num_threads"
                )
        elif max_threads is not None and max_threads != num_threads:
            raise ConfigError("max_threads without dynamic=True is meaningless")
        self.num_threads = num_threads
        self.context_switch = context_switch
        self.dynamic = dynamic
        self.max_threads = max_threads if dynamic else num_threads
        self._idle: List[Worker] = [
            Worker(f"thread-{i}") for i in range(num_threads)
        ]
        self._total = num_threads
        self.spawned_dynamically = 0

    def acquire_worker(self) -> Optional[Worker]:
        if self._idle:
            worker = self._idle.pop(0)
            worker.busy = True
            return worker
        if self.dynamic and self._total < self.max_threads:
            worker = Worker(f"thread-{self._total}")
            self._total += 1
            self.spawned_dynamically += 1
            worker.busy = True
            return worker
        return None

    def release_worker(self, worker: Worker) -> None:
        if not worker.busy:
            raise ResourceError(f"{worker!r} released while idle")
        worker.busy = False
        worker.blocked = False
        self._idle.append(worker)

    def dispatch_overhead(self, worker: Worker, core) -> float:
        # Charge a context switch when the core last ran someone else.
        last = core.last_worker_id
        core.last_worker_id = worker.worker_id
        if last is None or last == worker.worker_id:
            return 0.0
        return self.context_switch

    @property
    def concurrency(self) -> Optional[int]:
        return self.max_threads

    @property
    def idle_threads(self) -> int:
        return len(self._idle)

    def __repr__(self) -> str:
        grow = f"->{self.max_threads}" if self.dynamic else ""
        return (
            f"MultiThreadedModel({self.num_threads}{grow}, "
            f"cs={self.context_switch*1e6:.1f}us)"
        )
