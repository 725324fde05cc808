"""Resilience studies: retry storms and hedged requests.

Neither figure exists in the paper — they are the natural availability
counterpart to its performance validation, enabled by the fault
injection (:mod:`repro.faults`) and resilience (:mod:`repro.resilience`)
layers:

* **Retry storm** — drive a single-tier service ~20% past saturation
  with request timeouts. Unbudgeted retries amplify every timeout into
  more offered load, collapsing goodput below the no-retry baseline
  (the classic metastable failure); a 10% retry budget caps the
  amplification and restores goodput to within a few percent of
  baseline.
* **Hedging** — a 100-replica single-hop tier with 1% stragglers (the
  Fig 14 slow-server model applied to replicas instead of fanout
  leaves). Hedging the slowest few percent of requests cuts p99 by well
  over 30% at under 10% extra issued load — the tail-at-scale result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..apps.base import (
    World,
    add_client_machine,
    add_one_stage_service,
    new_world,
)
from ..distributions import Erlang, Exponential
from ..errors import ConfigError
from ..hardware import Machine
from ..resilience import HedgePolicy, ResiliencePolicy, RetryBudget, RetryPolicy
from ..topology import PathNode, PathTree
from ..workload import OpenLoopClient


def build_single_tier(
    mean_service: float = 1e-3,
    cores: int = 1,
    replicas: int = 1,
    seed: int = 0,
) -> World:
    """One exponential-service tier behind the dispatcher — the minimal
    saturable system for overload/retry studies."""
    if replicas < 1:
        raise ConfigError(f"replicas must be >= 1, got {replicas}")
    world = new_world(seed=seed)
    add_client_machine(world)
    tree = PathTree("single_tier")
    tree.add_node(PathNode("root", "server"))
    for i in range(replicas):
        machine_name = f"server-node{i}"
        world.cluster.add_machine(Machine(machine_name, cores))
        add_one_stage_service(
            world,
            machine_name,
            "server",
            Exponential(mean_service),
            cores,
            name=f"server_{i}",
        )
    world.dispatcher.add_tree(tree)
    world.labels.update(scenario="single_tier")
    return world


def build_straggler_tier(
    replicas: int = 100,
    slow_count: int = 1,
    slow_factor: float = 10.0,
    mean_service: float = 1e-3,
    seed: int = 0,
    balancer: str = "random",
) -> World:
    """*replicas* one-stage servers behind one load-balanced tier,
    *slow_count* of them degraded to ``slow_factor`` x service time —
    the Fig 14 straggler model applied to replicas of a single hop (the
    topology where hedging, not fan-in, sets the tail)."""
    if not 0 <= slow_count <= replicas:
        raise ConfigError(
            f"slow_count must be in [0, {replicas}], got {slow_count}"
        )
    if slow_factor < 1.0:
        raise ConfigError(f"slow_factor must be >= 1, got {slow_factor!r}")
    world = new_world(seed=seed)
    add_client_machine(world)
    tree = PathTree("straggler_tier")
    tree.add_node(PathNode("root", "leaf"))
    for i in range(replicas):
        machine_name = f"leaf-node{i}"
        world.cluster.add_machine(Machine(machine_name, 1))
        mean = mean_service * (slow_factor if i < slow_count else 1.0)
        # Erlang(4) keeps fast and slow latency modes well separated,
        # so the straggler cleanly owns the p99.
        add_one_stage_service(
            world, machine_name, "leaf", Erlang(4, mean), cores=1,
            name=f"leaf_{i}",
        )
    world.deployment.set_balancer("leaf", balancer)
    world.dispatcher.add_tree(tree)
    world.labels.update(
        scenario="straggler_tier",
        config=f"replicas={replicas} slow={slow_count}x{slow_factor:g}",
    )
    return world


@dataclass
class RetryStormPoint:
    """Goodput of one retry configuration at fixed overload."""

    mode: str
    goodput: float
    requests_sent: int
    requests_ok: int
    timeouts: int
    attempts_launched: int
    retries_issued: int

    @property
    def extra_attempts(self) -> float:
        """Retry amplification: extra attempts per primary request."""
        if self.requests_sent == 0:
            return 0.0
        return self.attempts_launched / self.requests_sent - 1.0


def _retry_policy(mode: str) -> ResiliencePolicy:
    timeout = 30e-3
    if mode == "no_retry":
        return ResiliencePolicy(timeout=timeout)
    if mode == "unbudgeted":
        return ResiliencePolicy(
            timeout=timeout,
            retry=RetryPolicy(max_attempts=4, backoff_base=1e-3, jitter=1e-4),
        )
    if mode == "budgeted":
        return ResiliencePolicy(
            timeout=timeout,
            retry=RetryPolicy(
                max_attempts=4,
                backoff_base=1e-3,
                jitter=1e-4,
                budget=RetryBudget(ratio=0.05, min_tokens=5),
            ),
        )
    raise ConfigError(f"unknown retry mode {mode!r}")


def measure_retry_storm(
    mode: str,
    overload: float = 1.2,
    mean_service: float = 1e-3,
    duration: float = 4.0,
    seed: int = 0,
) -> RetryStormPoint:
    """Run one retry configuration at ``overload`` x saturation and
    report steady-window goodput."""
    world = build_single_tier(mean_service=mean_service, seed=seed)
    qps = overload / mean_service
    client = OpenLoopClient(
        world.sim,
        world.dispatcher,
        arrivals=qps,
        stop_at=duration,
        resilience=_retry_policy(mode),
    )
    client.start()
    world.sim.run()
    warmup = duration * 0.25
    return RetryStormPoint(
        mode=mode,
        goodput=client.throughput(warmup, duration),
        requests_sent=client.requests_sent,
        requests_ok=client.requests_ok,
        timeouts=client.outcomes.get("timeout", 0),
        attempts_launched=world.dispatcher.attempts_launched,
        retries_issued=world.dispatcher.retries_issued,
    )


def retry_storm_sweep(
    modes: Sequence[str] = ("no_retry", "unbudgeted", "budgeted"),
    overload: float = 1.2,
    duration: float = 4.0,
    seed: int = 0,
) -> List[RetryStormPoint]:
    """The metastability comparison: goodput under overload for
    no-retry / unbudgeted-retry / budgeted-retry clients."""
    return [
        measure_retry_storm(mode, overload=overload, duration=duration, seed=seed)
        for mode in modes
    ]


@dataclass
class HedgingPoint:
    """Tail latency of one hedging configuration on the straggler tier."""

    hedge_delay: Optional[float]
    p50: float
    p99: float
    requests: int
    hedges_issued: int
    extra_load: float


def measure_hedging(
    hedge_delay: Optional[float],
    replicas: int = 100,
    slow_count: int = 1,
    slow_factor: float = 10.0,
    qps: float = 100.0,
    num_requests: int = 2000,
    seed: int = 0,
) -> HedgingPoint:
    """Drive the straggler tier with (or without) hedging and report
    the p50/p99 plus the hedge-induced extra issued load."""
    world = build_straggler_tier(
        replicas=replicas,
        slow_count=slow_count,
        slow_factor=slow_factor,
        seed=seed,
    )
    policy = None
    if hedge_delay is not None:
        policy = ResiliencePolicy(hedge=HedgePolicy(delay=hedge_delay))
    client = OpenLoopClient(
        world.sim,
        world.dispatcher,
        arrivals=qps,
        max_requests=num_requests,
        resilience=policy,
    )
    client.start()
    world.sim.run()
    dispatcher = world.dispatcher
    extra = 0.0
    if dispatcher.requests_submitted:
        extra = (
            dispatcher.attempts_launched / dispatcher.requests_submitted - 1.0
        )
    return HedgingPoint(
        hedge_delay=hedge_delay,
        p50=client.latencies.p50(),
        p99=client.latencies.p99(),
        requests=len(client.latencies),
        hedges_issued=dispatcher.hedges_issued,
        extra_load=extra,
    )


def hedging_sweep(
    hedge_delays: Sequence[Optional[float]] = (None, 2e-3, 3e-3, 5e-3),
    replicas: int = 100,
    slow_count: int = 1,
    seed: int = 0,
) -> List[HedgingPoint]:
    """p99 vs hedge delay on the 100-replica/1%-straggler tier; the
    ``None`` point is the unhedged baseline."""
    return [
        measure_hedging(
            delay, replicas=replicas, slow_count=slow_count, seed=seed
        )
        for delay in hedge_delays
    ]
