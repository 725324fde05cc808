"""Shared plumbing for the application model library."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..distributions import Deterministic, Distribution, Erlang
from ..engine import Simulator
from ..hardware import Cluster, Machine, NetworkFabric
from ..service import Microservice, SimpleModel, SingleQueue, Stage
from ..service import ExecutionPath, PathSelector
from ..testbed import RealismConfig
from ..topology import Deployment, Dispatcher
from . import calibration as cal


def stage_time(
    mean: float,
    shape: int = 4,
    realism: Optional[RealismConfig] = None,
) -> Distribution:
    """An Erlang-*shape* stage time around *mean* (cv = 1/sqrt(shape)),
    optionally wrapped in the real-system noise model."""
    dist: Distribution = Erlang(shape, mean)
    if realism is not None:
        dist = realism.wrap(dist)
    return dist


def det_time(
    value: float,
    realism: Optional[RealismConfig] = None,
) -> Distribution:
    """A (nearly) deterministic stage time, optionally noise-wrapped."""
    dist: Distribution = Deterministic(value)
    if realism is not None:
        dist = realism.wrap(dist)
    return dist


def rate_time(
    value: float,
    realism: Optional[RealismConfig] = None,
) -> Distribution:
    """A deterministic per-unit rate (e.g. seconds per byte).

    Rates are multiplied by a count downstream, so they may only carry
    *multiplicative* jitter — an additive interference stall on a
    per-byte rate would be scaled by the message size into absurdity.
    """
    dist: Distribution = Deterministic(value)
    if realism is not None:
        dist = realism.wrap_rate(dist)
    return dist


@dataclass
class World:
    """A runnable simulated system: hardware + deployment + dispatcher.

    Builders return one of these; experiments attach clients to
    ``dispatcher`` and run ``sim``.
    """

    sim: Simulator
    cluster: Cluster
    deployment: Deployment
    dispatcher: Dispatcher
    realism: Optional[RealismConfig] = None
    labels: Dict[str, str] = field(default_factory=dict)
    fault_injector: Optional[object] = None  # repro.faults.FaultInjector

    def instances(self, tier: str) -> List[Microservice]:
        return self.deployment.instances(tier)

    def instance(self, tier: str, index: int = 0) -> Microservice:
        return self.deployment.instances(tier)[index]


def new_world(
    network: Optional[NetworkFabric] = None,
    seed: int = 0,
    realism: Optional[RealismConfig] = None,
) -> World:
    """Empty world: simulator, cluster, deployment, dispatcher wired up."""
    sim = Simulator(seed=seed)
    cluster = Cluster(network)
    deployment = Deployment()
    dispatcher = Dispatcher(sim, deployment, cluster.network)
    return World(sim, cluster, deployment, dispatcher, realism)


def add_client_machine(world: World, name: str = "client") -> Machine:
    """A dedicated client machine (the paper runs wrk2 on its own
    server); it needs no netproc — client-side cost is not under study."""
    return world.cluster.add_machine(Machine(name, 16))


def add_one_stage_service(
    world: World,
    machine_name: str,
    tier: str,
    dist: Distribution,
    cores: int,
    name: Optional[str] = None,
) -> Microservice:
    """Deploy a one-stage, one-path service of *tier* whose stage time
    is *dist*, on *cores* cores of *machine_name* (named *name*, or
    after its tier) — the leaf server of the fan-out and resilience
    studies."""
    machine = world.cluster.machine(machine_name)
    core_set = machine.allocate(tier, cores)
    stage = Stage("process", 0, SingleQueue(), base=dist)
    selector = PathSelector([ExecutionPath(0, "only", [0])])
    instance = Microservice(
        name or tier,
        world.sim,
        [stage],
        selector,
        core_set,
        model=SimpleModel(),
        machine_name=machine_name,
        tier=tier,
    )
    world.deployment.add_instance(instance)
    return instance


def make_netproc(
    world: World,
    machine_name: str,
    cores: int = cal.NETPROC_DEFAULT_CORES,
    name: Optional[str] = None,
    kernel_bypass: bool = False,
) -> Microservice:
    """Deploy the per-machine network-processing (soft_irq) service.

    A single-stage simple-model service whose cost is per message and
    per byte; every cross-machine message to or from *machine_name*
    passes through it (paper SSIII-B).

    ``kernel_bypass=True`` models DPDK-style user-level networking —
    the acceleration technique the paper defers to future work: the
    same dedicated cores run a poll-mode driver with roughly an order
    of magnitude less CPU per message, which removes the interrupt
    ceiling from the Fig 8 load-balancing scenario.
    """
    name = name or f"netproc@{machine_name}"
    machine = world.cluster.machine(machine_name)
    core_set = machine.allocate(name, cores)
    per_message = cal.DPDK_PER_MESSAGE if kernel_bypass else cal.NETPROC_PER_MESSAGE
    per_byte = cal.DPDK_PER_BYTE if kernel_bypass else cal.NETPROC_PER_BYTE
    stage = Stage(
        "dpdk_poll" if kernel_bypass else "soft_irq",
        0,
        SingleQueue(batch_limit=32 if kernel_bypass else 4),
        per_job=det_time(per_message, world.realism),
        per_byte=rate_time(per_byte, world.realism),
        batching=True,
    )
    selector = PathSelector([ExecutionPath(0, "irq", [0])])
    instance = Microservice(
        name,
        world.sim,
        [stage],
        selector,
        core_set,
        model=SimpleModel(),
        machine_name=machine_name,
        tier="netproc",
    )
    world.deployment.set_netproc(machine_name, instance)
    return instance
