"""Execution stages: the queue-consumer pairs of the paper.

SSIII-B: "The basic element of the application logic is a stage, which
represents an execution phase within the microservice, and is
essentially a queue-consumer pair". A stage's processing time is
runtime-dependent: "epoll's execution time increases linearly with the
number of active events that are returned, and socket_read's
processing time is also proportional to the number of bytes read from
socket". This module captures that with a three-term cost model::

    cost(batch) = base + per_job * len(batch) + per_byte * sum(bytes)

each term sampled from a frequency-aware table, so DVFS slows all the
compute terms coherently. An optional *io* term models time the stage
spends blocked on a device (disk, for MongoDB misses): the CPU core is
released during I/O and the operation occupies the instance's
:class:`~repro.service.io.IoDevice`.
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..distributions import (
    DEFAULT_BLOCK,
    BufferedSampler,
    Deterministic,
    Distribution,
    FrequencyTable,
)
from ..errors import ConfigError
from ..hardware.dvfs import GHZ
from .job import Job
from .queues import StageQueue

NOMINAL_FREQUENCY = 2.6 * GHZ

CostInput = Union[Distribution, FrequencyTable, None]


def as_frequency_table(
    cost: CostInput, nominal: float = NOMINAL_FREQUENCY
) -> Optional[FrequencyTable]:
    """Coerce a plain distribution into a single-point frequency table.

    A bare :class:`Distribution` is taken to be profiled at the nominal
    frequency and fully compute-bound (pure frequency-ratio scaling
    under DVFS); pass a :class:`FrequencyTable` for anything richer.
    """
    if cost is None:
        return None
    if isinstance(cost, FrequencyTable):
        return cost
    if isinstance(cost, Distribution):
        return FrequencyTable.single(cost, nominal)
    raise ConfigError(f"expected Distribution/FrequencyTable, got {cost!r}")


class _Unattached:
    """Stands in for a stage's samplers until attach_samplers binds them."""

    __slots__ = ("stage",)

    def __init__(self, stage: str) -> None:
        self.stage = stage

    def sample(self, *args) -> float:
        raise ConfigError(
            f"stage {self.stage!r} has no sampler for this cost term; "
            f"its costs draw only through Stage.attach_samplers"
        )

    take = sample


class _FixedCost(dict):
    """Served values of a cost term that never draws, by requested frequency.

    Built by :meth:`Stage.attach_samplers` for a term whose every
    profiled point is :class:`~repro.distributions.Deterministic`. The
    first cost at a frequency asks the term's sampler once, which serves
    ``value if factor == 1.0 else value * factor``; later costs at that
    frequency read the stored value without a call.
    """

    __slots__ = ("sampler",)

    def __init__(self, sampler) -> None:
        super().__init__()
        self.sampler = sampler

    def __missing__(self, frequency: float) -> float:
        value = self[frequency] = self.sampler.sample(frequency)
        return value


class Stage:
    """One execution phase of a microservice.

    A stage's cost terms draw only once :meth:`attach_samplers` has
    bound them (the owning microservice does so at construction); a
    term that can never draw is then served from a per-frequency table
    of its fixed value, so costing it makes no sampler call.
    """

    def __init__(
        self,
        name: str,
        stage_id: int,
        queue: StageQueue,
        base: CostInput = None,
        per_job: CostInput = None,
        per_byte: CostInput = None,
        io: Optional[Distribution] = None,
        batching: bool = False,
    ) -> None:
        if stage_id < 0:
            raise ConfigError(f"stage_id must be >= 0, got {stage_id}")
        if base is None and per_job is None and per_byte is None and io is None:
            raise ConfigError(
                f"stage {name!r} has no cost terms; give at least one of "
                f"base/per_job/per_byte/io"
            )
        self.name = name
        self.stage_id = stage_id
        self.queue = queue
        self.base = as_frequency_table(base)
        self.per_job = as_frequency_table(per_job)
        self.per_byte = as_frequency_table(per_byte)
        self.io = io
        self.batching = batching
        # Dispatch hint kept by the owning microservice: True whenever
        # the queue may hold a ready job. Set by every event that can
        # expose one (push, connection unblock, cancellation of a
        # queued job) and cleared only when has_ready() says no, so it
        # covers every ready stage and the scan skips the rest.
        self.may_be_ready = False
        # Block-buffered samplers, bound by attach_samplers (the owning
        # microservice calls it). Until then every cost draw raises.
        unattached = _Unattached(name)
        self._base_sampler = unattached
        self._per_job_sampler = unattached
        self._per_byte_sampler = unattached
        self._io_sampler = unattached
        # Fixed-value tables of the terms that never draw, also bound by
        # attach_samplers; None serves the term from its sampler.
        self._base_fixed: Optional[_FixedCost] = None
        self._per_job_fixed: Optional[_FixedCost] = None
        self._per_byte_fixed: Optional[_FixedCost] = None
        # Telemetry, kept by the owning microservice at each batch start.
        self.invocations = 0
        self.jobs_processed = 0
        self.busy_time = 0.0

    def attach_samplers(
        self, streams, prefix: str, block: int = DEFAULT_BLOCK
    ) -> None:
        """Serve this stage's cost draws from block-buffered samplers.

        *streams* is the simulation's :class:`~repro.engine.RandomStreams`;
        each cost term that draws gets its own dedicated stream under
        *prefix* so the buffered draws have sole ownership of their
        generator (the :class:`~repro.distributions.BufferedSampler`
        determinism contract); a term profiled at several frequencies
        draws each non-nominal point from ``{term stream}@{frequency!r}``.
        A :class:`~repro.distributions.Deterministic` term never draws
        and gets none; streams are named, so no other draw moves. A
        compute term that is Deterministic at every profiled point also
        gets a fixed-value table (:class:`_FixedCost`), so its costs
        skip the sampler after the first at each frequency.
        Idempotent: re-attaching to the same streams factory reuses the
        same named streams and therefore the same sequence.
        """
        def stream(name: str, dist: Distribution):
            drawn = not isinstance(dist, Deterministic)
            return streams.stream(name) if drawn else None

        def sampler(table: FrequencyTable, term: str):
            name = f"{prefix}/{term}"
            return table.make_sampler(
                stream(name, table.at(table.frequencies[-1])), block,
                point_rng=lambda point: stream(
                    f"{name}@{point!r}", table.at(point)
                ),
            )

        def fixed(table: Optional[FrequencyTable], bound):
            if table is None or not all(
                isinstance(table.at(point), Deterministic)
                for point in table.frequencies
            ):
                return None
            return _FixedCost(bound)

        if self.base is not None:
            self._base_sampler = sampler(self.base, "base")
        if self.per_job is not None:
            self._per_job_sampler = sampler(self.per_job, "per_job")
        if self.per_byte is not None:
            self._per_byte_sampler = sampler(self.per_byte, "per_byte")
        self._base_fixed = fixed(self.base, self._base_sampler)
        self._per_job_fixed = fixed(self.per_job, self._per_job_sampler)
        self._per_byte_fixed = fixed(self.per_byte, self._per_byte_sampler)
        if self.io is not None:
            self._io_sampler = BufferedSampler(
                self.io, stream(f"{prefix}/io", self.io), block
            )

    def compute_cost(self, batch: List[Job], frequency: float) -> float:
        """CPU time (seconds) for executing *batch* at *frequency*."""
        if not batch:
            raise ConfigError(f"stage {self.name!r} asked to cost an empty batch")
        cost = 0.0
        if self.base is not None:
            fixed = self._base_fixed
            cost += (
                self._base_sampler.sample(frequency) if fixed is None
                else fixed[frequency]
            )
        if self.per_job is not None:
            n = len(batch)
            fixed = self._per_job_fixed
            if fixed is not None:
                value = fixed[frequency]
                # n in-order copies, exactly as the sampler's take sums.
                cost += value if n == 1 else sum([value] * n)
            else:
                sampler = self._per_job_sampler
                cost += sampler.sample(frequency) if n == 1 else sum(
                    sampler.take(n, frequency)
                )
        if self.per_byte is not None:
            total_bytes = (
                batch[0].size_bytes if len(batch) == 1
                else sum([job.size_bytes for job in batch])
            )
            if total_bytes > 0:
                fixed = self._per_byte_fixed
                cost += (
                    self._per_byte_sampler.sample(frequency) if fixed is None
                    else fixed[frequency]
                ) * total_bytes
        return cost

    def io_cost(self, batch: List[Job]) -> float:
        """Device time the batch spends in I/O (0 when the stage has none)."""
        if self.io is None:
            return 0.0
        n = len(batch)
        sampler = self._io_sampler
        return sampler.sample() if n == 1 else sum(sampler.take(n))

    def mean_cost(
        self,
        batch_size: int = 1,
        mean_bytes: float = 0.0,
        frequency: Optional[float] = None,
    ) -> float:
        """Expected per-invocation CPU cost — used by calibration and by
        the BigHouse folding (which charges the full, un-amortised stage
        cost to every request)."""
        cost = 0.0
        if self.base is not None:
            cost += self.base.mean(frequency)
        if self.per_job is not None:
            cost += batch_size * self.per_job.mean(frequency)
        if self.per_byte is not None:
            cost += batch_size * mean_bytes * self.per_byte.mean(frequency)
        return cost

    def __repr__(self) -> str:
        return (
            f"<Stage {self.stage_id}:{self.name} queue={self.queue!r} "
            f"batching={self.batching}>"
        )
