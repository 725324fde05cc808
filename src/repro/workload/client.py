"""The open-loop workload generator.

Models the paper's modified wrk2 client (SSIV-A): open-loop arrivals
(the next request is sent on schedule regardless of outstanding
responses — the correct way to measure tail latency), a configurable
connection count, request-type mix, and payload-size distribution. The
client records end-to-end latencies into a
:class:`~repro.telemetry.latency.LatencyRecorder`.

Outcome accounting: only requests that resolve ``ok`` are recorded
into the latency recorder, so :meth:`OpenLoopClient.throughput`
reports *goodput*. Timed-out / shed / failed resolutions are tallied
separately in :attr:`OpenLoopClient.outcomes`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

from ..engine import PRIORITY_ARRIVAL, Simulator
from ..errors import WorkloadError
from ..service import Request
from ..service.job import OUTCOME_OK, OUTCOMES
from ..telemetry.latency import LatencyRecorder
from ..topology import Dispatcher
from .arrival import ArrivalProcess, PoissonArrivals
from .patterns import LoadPattern
from .request_mix import RequestMix


class OpenLoopClient:
    """Generates requests into a dispatcher at a scheduled rate."""

    def __init__(
        self,
        sim: Simulator,
        dispatcher: Dispatcher,
        arrivals: Union[ArrivalProcess, LoadPattern, float],
        mix: Optional[RequestMix] = None,
        name: str = "client",
        machine: str = "client",
        max_requests: Optional[int] = None,
        stop_at: Optional[float] = None,
        on_complete: Optional[Callable[[Request], None]] = None,
        realism=None,
        resilience=None,
    ) -> None:
        """
        *arrivals* may be an :class:`ArrivalProcess`, a
        :class:`LoadPattern` (wrapped in Poisson arrivals — the wrk2
        behaviour), or a plain QPS number. Generation stops after
        *max_requests* and/or at time *stop_at*, whichever comes first.

        *realism* (a :class:`~repro.testbed.RealismConfig`) makes the
        client record *observed* latencies — including the real-system
        timeout/reconnection overhead past saturation — instead of raw
        simulated latencies.

        *resilience* (a :class:`~repro.resilience.ResiliencePolicy`)
        is attached to every submitted request; the dispatcher enforces
        it (timeouts, retries, hedging, breaker, shedding).
        """
        if isinstance(arrivals, (int, float)):
            arrivals = PoissonArrivals.at_rate(float(arrivals))
        elif isinstance(arrivals, LoadPattern):
            arrivals = PoissonArrivals(arrivals)
        if max_requests is None and stop_at is None:
            raise WorkloadError(
                "open-loop client needs max_requests and/or stop_at, "
                "otherwise generation never terminates"
            )
        if max_requests is not None and max_requests < 1:
            raise WorkloadError(f"max_requests must be >= 1, got {max_requests}")
        self.sim = sim
        self.dispatcher = dispatcher
        self.arrivals = arrivals
        self.mix = mix or RequestMix.single()
        self.name = name
        self.machine = machine
        self.max_requests = max_requests
        self.stop_at = stop_at
        self._extra_on_complete = on_complete
        self.realism = realism
        self.resilience = resilience
        self._rng = sim.random.stream(f"client/{name}")
        # Inter-arrival gaps draw from their own stream through the
        # arrival process's (possibly block-buffered) sampler; the
        # dedicated stream gives the buffer sole generator ownership,
        # which is what makes buffering draw-for-draw exact.
        self._next_gap = arrivals.make_sampler(
            sim.random.stream(f"client/{name}/arrivals")
        )
        self._started = False

        self.latencies = LatencyRecorder(f"{name}/e2e")
        self.requests_sent = 0
        self.requests_completed = 0
        self.outcomes = dict.fromkeys(OUTCOMES, 0)
        self.completed_requests: List[Request] = []

    # Lifecycle ----------------------------------------------------------

    def start(self, at: Optional[float] = None) -> "OpenLoopClient":
        """Schedule the first arrival (defaults to one gap from now)."""
        if self._started:
            raise WorkloadError(f"client {self.name!r} started twice")
        self._started = True
        start_time = self.sim.now if at is None else at
        gap = self._next_gap(start_time)
        self.sim.schedule_at(
            start_time + gap, self._fire, priority=PRIORITY_ARRIVAL
        )
        return self

    def _fire(self) -> None:
        now = self.sim.now
        if self.stop_at is not None and now > self.stop_at:
            return
        rtype, size = self.mix.sample(self._rng)
        request = Request(created_at=now, request_type=rtype, size_bytes=size)
        self.requests_sent += 1
        self.dispatcher.submit(
            request,
            on_complete=self._on_complete,
            client_name=self.name,
            client_machine=self.machine,
            policy=self.resilience,
        )
        if self.max_requests is not None and self.requests_sent >= self.max_requests:
            return
        gap = self._next_gap(now)
        # Arrival ticks are never cancelled: stop_at and max_requests
        # are checked at fire time.
        self.sim.schedule(gap, self._fire, priority=PRIORITY_ARRIVAL)

    def _on_complete(self, request: Request) -> None:
        self.requests_completed += 1
        outcome = request.outcome or OUTCOME_OK
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        self.completed_requests.append(request)
        if outcome == OUTCOME_OK:
            assert request.latency is not None
            latency = request.latency
            if self.realism is not None:
                latency = self.realism.observed_latency(latency, self._rng)
            self.latencies.record(request.completed_at, latency)
        if self._extra_on_complete is not None:
            self._extra_on_complete(request)

    # Reporting ----------------------------------------------------------

    @property
    def outstanding(self) -> int:
        return self.requests_sent - self.requests_completed

    @property
    def requests_ok(self) -> int:
        """Requests that resolved with outcome ``ok``."""
        return self.outcomes.get(OUTCOME_OK, 0)

    @property
    def requests_errored(self) -> int:
        """Requests that resolved timeout/shed/failed."""
        return self.requests_completed - self.requests_ok

    def throughput(self, since: float, until: float) -> float:
        """Goodput: completed-*ok* requests per second over a window
        (only ok resolutions enter the latency recorder)."""
        return self.latencies.throughput(since, until)

    def __repr__(self) -> str:
        return (
            f"<OpenLoopClient {self.name} sent={self.requests_sent} "
            f"done={self.requests_completed}>"
        )
