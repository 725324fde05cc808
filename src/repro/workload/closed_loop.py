"""Closed-loop workload generation.

The paper's validation is strictly open-loop (the correct methodology
for tail-latency measurement), but a closed-loop client — N logical
users, each issuing the next request only after receiving the previous
response, with optional think time — is the standard counterpart for
capacity planning and for demonstrating coordinated-omission effects.
Provided as a library extension; no paper figure depends on it.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..distributions import Deterministic, Distribution
from ..engine import PRIORITY_ARRIVAL, Simulator
from ..errors import WorkloadError
from ..service import Request
from ..service.job import OUTCOME_OK, OUTCOMES
from ..telemetry.latency import LatencyRecorder
from ..topology import Dispatcher
from .request_mix import RequestMix


class ClosedLoopClient:
    """*concurrency* users in a request -> response -> think loop."""

    def __init__(
        self,
        sim: Simulator,
        dispatcher: Dispatcher,
        concurrency: int,
        think_time: Optional[Distribution] = None,
        mix: Optional[RequestMix] = None,
        name: str = "closed-client",
        machine: str = "client",
        max_requests: Optional[int] = None,
        stop_at: Optional[float] = None,
        on_complete: Optional[Callable[[Request], None]] = None,
    ) -> None:
        if concurrency < 1:
            raise WorkloadError(f"concurrency must be >= 1, got {concurrency}")
        if max_requests is None and stop_at is None:
            raise WorkloadError(
                "closed-loop client needs max_requests and/or stop_at"
            )
        self.sim = sim
        self.dispatcher = dispatcher
        self.concurrency = concurrency
        self.think_time = think_time or Deterministic(0.0)
        self.mix = mix or RequestMix.single()
        self.name = name
        self.machine = machine
        self.max_requests = max_requests
        self.stop_at = stop_at
        self._extra_on_complete = on_complete
        self._rng = sim.random.stream(f"client/{name}")
        self._started = False

        self.latencies = LatencyRecorder(f"{name}/e2e")
        self.requests_sent = 0
        self.requests_completed = 0
        self.outcomes = dict.fromkeys(OUTCOMES, 0)

    def start(self) -> "ClosedLoopClient":
        if self._started:
            raise WorkloadError(f"client {self.name!r} started twice")
        self._started = True
        for _ in range(self.concurrency):
            self._issue()
        return self

    def _budget_left(self) -> bool:
        if self.stop_at is not None and self.sim.now >= self.stop_at:
            return False
        if self.max_requests is not None and self.requests_sent >= self.max_requests:
            return False
        return True

    def _issue(self) -> None:
        if not self._budget_left():
            return
        rtype, size = self.mix.sample(self._rng)
        request = Request(
            created_at=self.sim.now, request_type=rtype, size_bytes=size
        )
        self.requests_sent += 1
        self.dispatcher.submit(
            request,
            on_complete=self._on_complete,
            client_name=self.name,
            client_machine=self.machine,
        )

    def _on_complete(self, request: Request) -> None:
        self.requests_completed += 1
        outcome = request.outcome or OUTCOME_OK
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        # Only ok resolutions are latency samples, as in OpenLoopClient.
        if outcome == OUTCOME_OK:
            assert request.latency is not None
            self.latencies.record(request.completed_at, request.latency)
        if self._extra_on_complete is not None:
            self._extra_on_complete(request)
        think = self.think_time.sample(self._rng)
        self.sim.schedule(think, self._issue, priority=PRIORITY_ARRIVAL)

    @property
    def outstanding(self) -> int:
        return self.requests_sent - self.requests_completed

    def __repr__(self) -> str:
        return (
            f"<ClosedLoopClient {self.name} users={self.concurrency} "
            f"sent={self.requests_sent}>"
        )
