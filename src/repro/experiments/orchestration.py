"""Orchestration studies: self-healing and SLO-gated rollouts.

Neither experiment exists in the paper — they exercise the cluster
control plane (:mod:`repro.controlplane`) the same way the resilience
studies exercise :mod:`repro.resilience`:

* **Node failure** — a replicated tier under steady load loses a whole
  machine to a :meth:`~repro.faults.FaultPlan.fail_machine` fault. The
  reconciler retires the dead replicas and reschedules replacements
  onto the surviving machines (placement + cold start), so goodput dips
  and then recovers without a single lost request — every in-flight
  casualty resolves as a timeout and retries.
* **Rollout** — a canary of a candidate version joins the tier through
  the control plane. A regressed candidate breaches its canary-scoped
  SLO and is rolled back automatically, leaving the stable fleet
  untouched; a healthy candidate survives its observation window and
  rolls out to the whole tier.

Both sweep over seeds (one independent world per seed), fan out across
processes, journal into ``--run-dir`` for durable resume, and support
the conservation audit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..apps.base import World, new_world
from ..controlplane import (
    CanaryRollout,
    ControlPlane,
    PlacementPolicy,
    ReplicaSpec,
    RollingUpdate,
)
from ..distributions import Exponential
from ..errors import ConfigError
from ..faults import FaultInjector, FaultPlan
from ..hardware import Machine
from ..resilience import ResiliencePolicy, RetryPolicy
from ..runner import derive_seed, point_key, register_result_type
from ..service import (
    ExecutionPath,
    Microservice,
    PathSelector,
    SimpleModel,
    SingleQueue,
    Stage,
)
from ..service.microservice import STATE_UP
from ..telemetry.slo import LATENCY, SLO
from ..topology import PathNode, PathTree
from ..workload import OpenLoopClient
from .audit import audit_client
from .loadsweep import sweep_config
from .options import RunOptions

#: The tier every orchestrated world serves.
SERVICE = "web"


@dataclass
class ClusterWorld:
    """A :class:`~repro.apps.base.World` managed by a control plane."""

    world: World
    control_plane: ControlPlane

    @property
    def sim(self):
        return self.world.sim


def replica_factory(world: World, mean_service: float):
    """A :class:`~repro.controlplane.ReplicaSpec` factory building
    one-stage exponential replicas of the managed tier.

    The returned callable follows the factory contract: it only builds
    the instance — the control plane owns naming, core allocation, and
    deployment registration.
    """

    def factory(name: str, machine, cores, version: str) -> Microservice:
        stage = Stage(
            "process", 0, SingleQueue(), base=Exponential(mean_service)
        )
        selector = PathSelector([ExecutionPath(0, "only", [0])])
        return Microservice(
            name,
            world.sim,
            [stage],
            selector,
            cores,
            model=SimpleModel(),
            machine_name=machine.name,
            tier=SERVICE,
        )

    return factory


def build_cluster_world(
    machines: int = 4,
    cores_per_machine: int = 4,
    racks: int = 2,
    zones: int = 1,
    replicas: int = 4,
    cores_per_replica: int = 1,
    mean_service: float = 1e-3,
    placement: str = "spread",
    domain: str = "machine",
    reconcile_interval: float = 0.05,
    cold_start: float = 0.1,
    seed: int = 0,
) -> ClusterWorld:
    """A multi-machine cluster whose only tier is deployed *by the
    control plane* rather than hand-placed.

    Machines are labelled round-robin into *racks*/*zones* failure
    domains; the initial placement is synchronous (deploys precede
    traffic) and every later replica — replacement, surge, scale-up —
    pays placement plus the *cold_start* delay.
    """
    if replicas < 2:
        raise ConfigError(
            f"orchestrated worlds need >= 2 replicas (the reconciler "
            f"never empties a tier), got {replicas}"
        )
    world = new_world(seed=seed)
    for i in range(machines):
        rack_id = i % racks
        world.cluster.add_machine(
            Machine(
                f"node{i}",
                cores_per_machine,
                rack=f"rack{rack_id}",
                zone=f"zone{rack_id % zones}",
            )
        )
    world.deployment.set_pool(SERVICE, 8)
    world.dispatcher.add_tree(
        PathTree("orchestrated").chain(PathNode("root", SERVICE))
    )
    control_plane = ControlPlane(
        world.sim,
        world.cluster,
        world.deployment,
        reconcile_interval=reconcile_interval,
        cold_start=cold_start,
    )
    control_plane.apply(
        ReplicaSpec(
            SERVICE,
            replicas,
            cores_per_replica,
            replica_factory(world, mean_service),
            PlacementPolicy(placement, domain),
        )
    )
    world.labels.update(
        scenario="orchestrated",
        config=f"machines={machines} replicas={replicas}",
    )
    return ClusterWorld(world, control_plane)


# ---------------------------------------------------------------------------
# Node failure: kill a machine, watch the reconciler heal the tier
# ---------------------------------------------------------------------------

@register_result_type
@dataclass
class NodeFailurePoint:
    """One seed's machine-kill run: loss, healing, and recovery."""

    seed: int
    machine: str
    fail_at: float
    requests_sent: int
    requests_ok: int
    timeouts: int
    lost: int  #: sent but never resolved (conservation demands 0)
    goodput_before: float  #: completed/s up to the kill
    goodput_after: float  #: completed/s over the recovery window
    reschedules: int
    retirements: int
    placements: int
    survivors: int  #: replicas up at the end

    @property
    def recovered(self) -> bool:
        """Goodput over the recovery window regained >= 80% of the
        pre-kill rate."""
        return self.goodput_after >= 0.8 * self.goodput_before


def measure_node_failure(
    seed: int,
    qps: float = 400.0,
    duration: float = 3.0,
    fail_at: float = 0.5,
    machine: str = "node0",
    recovery_from: float = 1.5,
    machines: int = 4,
    replicas: int = 4,
    timeout: float = 0.2,
    fault_plan: Optional[FaultPlan] = None,
    audit: bool = False,
    **world_kwargs,
) -> NodeFailurePoint:
    """Run one machine-kill scenario and report healing statistics.

    The default plan kills *machine* at *fail_at*; passing *fault_plan*
    (e.g. from ``--fault-plan``) replaces it wholesale. The client
    retries timed-out requests, so requests in flight on the dead
    machine resolve instead of hanging — with *audit* on, the
    conservation check proves none leaked.
    """
    cw = build_cluster_world(
        machines=machines, replicas=replicas,
        seed=derive_seed(seed, "node_failure", float(qps)),
        **world_kwargs,
    )
    world, cp = cw.world, cw.control_plane
    cp.start(stop_at=duration)
    plan = fault_plan or FaultPlan().fail_machine(fail_at, machine)
    FaultInjector(
        world.sim, world.deployment, world.cluster.network, plan,
        cluster=world.cluster,
    ).arm()
    client = OpenLoopClient(
        world.sim,
        world.dispatcher,
        arrivals=qps,
        stop_at=duration,
        resilience=ResiliencePolicy(
            timeout=timeout, retry=RetryPolicy(max_attempts=3)
        ),
    )
    client.start()
    world.sim.run(until=duration + 1.0)
    if audit:
        audit_client(client, world.sim, dispatcher=world.dispatcher)
    resolved = sum(client.outcomes.values())
    up = [
        r for r in cp.managed_replicas(SERVICE) if r.state == STATE_UP
    ]
    return NodeFailurePoint(
        seed=seed,
        machine=machine,
        fail_at=fail_at,
        requests_sent=client.requests_sent,
        requests_ok=client.requests_ok,
        timeouts=client.outcomes.get("timeout", 0),
        lost=client.requests_sent - resolved - client.outstanding,
        goodput_before=client.throughput(0.1, fail_at),
        goodput_after=client.throughput(recovery_from, duration),
        reschedules=cp.reschedules,
        retirements=cp.retirements,
        placements=cp.placements,
        survivors=len(up),
    )


def node_failure_experiment(
    seeds: Sequence[int] = (1, 2, 3),
    qps: float = 400.0,
    duration: float = 3.0,
    fail_at: float = 0.5,
    machine: str = "node0",
    seed: int = 0,
    jobs: int = 1,
    run_dir: Optional[Union[str, Path]] = None,
    resume: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    audit: bool = False,
    **world_kwargs,
) -> List[NodeFailurePoint]:
    """The self-healing study: one machine-kill world per seed.

    *seed* offsets the whole sweep (each point derives its own world
    seed), so ``--seed`` decorrelates every world at once while any
    single point stays reproducible in isolation. Results journal into
    *run_dir* under content keys, exactly like the load sweeps.
    """
    options = RunOptions.pick(locals())
    point = functools.partial(
        measure_node_failure, qps=qps, duration=duration, fail_at=fail_at,
        machine=machine, fault_plan=fault_plan, audit=audit, **world_kwargs,
    )
    items = [derive_seed(seed, int(s)) for s in seeds]
    config = sweep_config(
        experiment="node_failure", qps=qps, duration=duration,
        fail_at=fail_at, machine=machine, fault_plan=fault_plan,
        audit=audit, **world_kwargs,
    )
    return options.map(
        point, items, experiment="node_failure", config=config, seeds=items,
        keys=[point_key("node_failure", {"seed": s}, s, config)
              for s in items],
    )


# ---------------------------------------------------------------------------
# Rollout: canary a candidate version behind an SLO gate
# ---------------------------------------------------------------------------

@register_result_type
@dataclass
class RolloutPoint:
    """One seed's deploy: what the gate decided and what survived."""

    seed: int
    strategy: str
    regression: float  #: candidate service-time multiplier (1.0 = clean)
    state: str  #: rolled_out | rolled_back | in_progress
    breaches: int
    decided_at: Optional[float]
    #: replica name -> version once the rollout decided.
    final_versions: Dict[str, str] = field(default_factory=dict)
    requests_ok: int = 0
    goodput: float = 0.0

    @property
    def rolled_back(self) -> bool:
        return self.state == "rolled_back"


def measure_rollout(
    seed: int,
    regression: float = 10.0,
    strategy: str = "canary",
    qps: float = 300.0,
    duration: float = 4.0,
    start_at: float = 0.5,
    observe_for: float = 1.5,
    slo_threshold: float = 10e-3,
    mean_service: float = 1e-3,
    audit: bool = False,
    **world_kwargs,
) -> RolloutPoint:
    """Deploy a ``v2`` candidate whose service time is ``regression`` x
    the stable version's, gated (for ``strategy="canary"``) by a
    latency SLO scoped to the canary cohort alone."""
    if strategy not in ("canary", "rolling"):
        raise ConfigError(
            f"strategy must be 'canary' or 'rolling', got {strategy!r}"
        )
    cw = build_cluster_world(
        mean_service=mean_service,
        seed=derive_seed(seed, "rollout", strategy, float(regression)),
        **world_kwargs,
    )
    world, cp = cw.world, cw.control_plane
    cp.start(stop_at=duration)
    candidate = replica_factory(world, mean_service * regression)
    if strategy == "canary":
        rollout = CanaryRollout(
            cp, SERVICE, "v2", candidate,
            slos=[SLO(
                LATENCY, threshold=slo_threshold, percentile=95.0,
                window=0.5,
            )],
            canary_replicas=1,
            observe_for=observe_for,
            min_samples=10,
        )
    else:
        rollout = RollingUpdate(cp, SERVICE, "v2", factory=candidate)
    world.sim.schedule(start_at, rollout.start)
    client = OpenLoopClient(
        world.sim,
        world.dispatcher,
        arrivals=qps,
        stop_at=duration,
        resilience=ResiliencePolicy(timeout=0.5),
    )
    client.start()
    world.sim.run(until=duration + 1.0)
    if audit:
        audit_client(client, world.sim, dispatcher=world.dispatcher)
    result = rollout.result
    return RolloutPoint(
        seed=seed,
        strategy=strategy,
        regression=regression,
        state=result.state,
        breaches=result.breaches,
        decided_at=result.decided_at,
        final_versions=dict(result.final_versions),
        requests_ok=client.requests_ok,
        goodput=client.throughput(duration * 0.25, duration),
    )


def rollout_experiment(
    seeds: Sequence[int] = (1, 2, 3),
    regression: float = 10.0,
    strategy: str = "canary",
    seed: int = 0,
    jobs: int = 1,
    run_dir: Optional[Union[str, Path]] = None,
    resume: bool = True,
    audit: bool = False,
    **kwargs,
) -> List[RolloutPoint]:
    """The SLO-gated deploy study: one rollout world per seed.

    With the default ``regression=10.0`` the candidate is badly
    regressed and every seed should end ``rolled_back`` with the stable
    version still serving; ``regression=1.0`` is the control — a clean
    candidate that promotes."""
    options = RunOptions.pick(locals())
    point = functools.partial(
        measure_rollout, regression=regression, strategy=strategy,
        audit=audit, **kwargs,
    )
    items = [derive_seed(seed, int(s)) for s in seeds]
    config = sweep_config(
        experiment="rollout", regression=regression, strategy=strategy,
        audit=audit, **kwargs,
    )
    return options.map(
        point, items, experiment="rollout", config=config, seeds=items,
        keys=[point_key("rollout", {"seed": s}, s, config) for s in items],
    )
