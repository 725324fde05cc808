"""The BigHouse baseline: single-queue datacenter simulation.

Paper SSII/SSIV-E: "BigHouse represents workloads as inter-arrival and
service distributions ... The simulator then models each application as
a single queue, and runs multiple instances in parallel until
performance metrics converge." Because the whole application is one
queue, "the entire processing time of epoll is accounted for in every
request, leading to overestimation of the accumulated tail latency" —
the effect Fig 13 demonstrates.

This module implements that methodology faithfully: a compact G/G/k
event simulation per instance, with instances accumulated until the
tail-latency estimate converges under the stopping rule it shares with
the uqSim replication harness (:mod:`repro.analysis.convergence`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List

import numpy as np

from ..analysis.convergence import StoppingRule, replicate
from ..distributions import Distribution
from ..engine import RandomStreams
from ..errors import SimulationError


@dataclass
class BigHouseResult:
    """Converged output of one BigHouse run."""

    mean: float
    p50: float
    p95: float
    p99: float
    samples: int
    instances: int
    converged: bool


def simulate_ggk_instance(
    interarrival: Distribution,
    service: Distribution,
    servers: int,
    num_requests: int,
    rng: np.random.Generator,
    warmup_fraction: float = 0.2,
) -> np.ndarray:
    """One G/G/k instance; returns post-warmup sojourn times.

    Event-driven with a completion heap: at each arrival, either seize a
    free server or queue FCFS; completions free servers for the queue
    head. O(n log k).
    """
    if servers < 1:
        raise SimulationError(f"G/G/k needs >= 1 server, got {servers}")
    if num_requests < 10:
        raise SimulationError(f"need >= 10 requests, got {num_requests}")

    arrivals = np.cumsum(interarrival.sample_many(rng, num_requests))
    services = service.sample_many(rng, num_requests)

    # Kiefer-Wolfowitz recursion: a min-heap of per-server next-free
    # times; each FCFS request takes the earliest-free server.
    next_free = [0.0] * servers
    heapq.heapify(next_free)
    latencies = np.empty(num_requests)

    for i in range(num_requests):
        arrival = arrivals[i]
        earliest_free = heapq.heappop(next_free)
        start = max(arrival, earliest_free)
        finish = start + services[i]
        heapq.heappush(next_free, finish)
        latencies[i] = finish - arrival

    cut = int(num_requests * warmup_fraction)
    return latencies[cut:]


class BigHouseSimulator:
    """Runs G/G/k instances until the p99 estimate converges.

    Convergence is the shared
    :class:`~repro.analysis.convergence.StoppingRule` over the
    per-instance p99 estimates: between *min_instances* and
    *max_instances* instances, stopping once their standard error is
    under *tolerance* of their mean. Instance *k* draws from its own
    ``instance/{k}`` stream.
    """

    def __init__(
        self,
        interarrival: Distribution,
        service: Distribution,
        servers: int = 1,
        requests_per_instance: int = 20_000,
        min_instances: int = 4,
        max_instances: int = 64,
        tolerance: float = 0.05,
        seed: int = 0,
    ) -> None:
        self.rule = StoppingRule(min_instances, max_instances, tolerance)
        self.interarrival = interarrival
        self.service = service
        self.servers = servers
        self.requests_per_instance = requests_per_instance
        self._streams = RandomStreams(seed)

    def _instances(self, indices: range) -> List[np.ndarray]:
        return [simulate_ggk_instance(
            self.interarrival, self.service, self.servers,
            self.requests_per_instance, self._streams.stream(f"instance/{k}"),
        ) for k in indices]

    def run(self) -> BigHouseResult:
        instances, _, _, converged = replicate(
            self.rule, self._instances,
            lambda samples: float(np.percentile(samples, 99)),
        )
        merged = np.concatenate(instances)
        return BigHouseResult(
            mean=float(np.mean(merged)),
            p50=float(np.percentile(merged, 50)),
            p95=float(np.percentile(merged, 95)),
            p99=float(np.percentile(merged, 99)),
            samples=int(merged.size),
            instances=len(instances),
            converged=converged,
        )
