"""Tail@scale study (paper SSV-A / Fig 14).

"we simulate clusters of different sizes, ranging from 5 servers to
1000 servers ... a user request fans out to all servers in the cluster,
and only returns to the user after the last server responds. ... the
application is a simple one-stage queueing system with exponentially
distributed processing time, around a 1ms mean. To emulate slow
servers, we increase the average processing time of a configurable
fraction of randomly-selected servers by 10x."
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

from ..apps.base import World, add_client_machine, new_world
from ..distributions import Deterministic, Exponential
from ..errors import ConfigError
from ..hardware import Machine, NetworkFabric
from ..service import (
    ExecutionPath,
    Microservice,
    PathSelector,
    SimpleModel,
    SingleQueue,
    Stage,
)
from ..runner import point_key, register_result_type
from ..telemetry.export import write_otlp, write_perfetto
from ..telemetry.slo import SLOMonitor
from ..telemetry.tracing import TraceConfig, trace_requested
from ..topology import PathNode, PathTree
from ..workload import OpenLoopClient
from .audit import audit_client
from .loadsweep import sweep_manifest_extra
from .options import (
    RunOptions,
    SLOSpec,
    implied_trace,
    resolve_slos,
    runner_kwargs,
)


def build_fanout_cluster(
    cluster_size: int,
    slow_fraction: float,
    slow_factor: float = 10.0,
    mean_service: float = 1e-3,
    seed: int = 0,
    network: Optional[NetworkFabric] = None,
) -> World:
    """A cluster of *cluster_size* one-stage leaf servers plus a cheap
    aggregator; every request visits every leaf and synchronises at the
    aggregator before returning."""
    if cluster_size < 1:
        raise ConfigError(f"cluster_size must be >= 1, got {cluster_size}")
    if not 0.0 <= slow_fraction <= 1.0:
        raise ConfigError(f"slow_fraction must be in [0,1], got {slow_fraction!r}")
    if slow_factor < 1.0:
        raise ConfigError(f"slow_factor must be >= 1, got {slow_factor!r}")

    world = new_world(network, seed)
    add_client_machine(world)
    placement_rng = world.sim.random.stream("tail-at-scale/placement")
    slow_mask = placement_rng.random(cluster_size) < slow_fraction

    tree = PathTree("tail_at_scale")
    agg_machine = world.cluster.add_machine(Machine("aggregator", 4))
    aggregator = _one_stage_service(
        world, "aggregator", "agg", Deterministic(5e-6), cores=4
    )
    tree.add_node(PathNode("root", "agg"))
    for i in range(cluster_size):
        machine_name = f"leaf-node{i}"
        world.cluster.add_machine(Machine(machine_name, 1))
        mean = mean_service * (slow_factor if slow_mask[i] else 1.0)
        _one_stage_service(
            world, machine_name, f"leaf{i}", Exponential(mean), cores=1
        )
        tree.add_node(PathNode(f"leaf{i}", f"leaf{i}"))
        tree.add_edge("root", f"leaf{i}")
    tree.add_node(PathNode("join", "agg", same_instance_as="root"))
    for i in range(cluster_size):
        tree.add_edge(f"leaf{i}", "join")
    world.dispatcher.add_tree(tree)
    world.labels.update(
        scenario="tail_at_scale",
        config=(
            f"size={cluster_size} slow={slow_fraction:.0%} "
            f"({int(slow_mask.sum())} slow servers)"
        ),
    )
    return world


def _fanout_sharded_runner():
    """The hand-written fan-out runner, imported late so
    ``repro.shard`` stays an optional layer of the import graph (it
    imports back into this module)."""
    from ..shard import fanout_sharded_load_point

    return fanout_sharded_load_point


#: Opt-in hook read by :func:`repro.experiments.loadsweep.measure_at_load`
#: when called with ``shards > 1`` — builders without the attribute get
#: a loud error instead of a silently-unsharded run. The runner's
#: signature is its capability set: the fan-out port predates the
#: generic world adapter and takes no telemetry options.
build_fanout_cluster.sharded_runner = _fanout_sharded_runner


def _one_stage_service(world, machine_name, tier, dist, cores):
    machine = world.cluster.machine(machine_name)
    core_set = machine.allocate(tier, cores)
    stage = Stage("process", 0, SingleQueue(), base=dist)
    selector = PathSelector([ExecutionPath(0, "only", [0])])
    instance = Microservice(
        tier,
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


@register_result_type
@dataclass
class TailAtScalePoint:
    """One (cluster size, slow fraction) measurement of Fig 14."""

    cluster_size: int
    slow_fraction: float
    p50: float
    p99: float
    requests: int
    #: Per-SLO verdicts when the cell ran with objectives attached
    #: (``None`` otherwise; defaulted so old journals still decode).
    slo: Optional[dict] = None
    #: Shard-supervisor recovery report when worker processes had to
    #: be rebuilt mid-run (``None`` for unsharded or fault-free cells,
    #: so unfaulted results stay identical and old journals decode).
    shard_recovery: Optional[dict] = None


def measure_tail_at_scale(
    cluster_size: int,
    slow_fraction: float,
    qps: float = 30.0,
    num_requests: int = 300,
    slow_factor: float = 10.0,
    seed: int = 0,
    audit: bool = False,
    trace: Union[bool, TraceConfig] = False,
    trace_dir: Optional[Union[str, Path]] = None,
    slo: Optional[SLOSpec] = None,
    shards: int = 1,
    network: Optional[NetworkFabric] = None,
    fault_plan=None,
    shard_timeout: Optional[float] = None,
    shard_restarts: Optional[int] = None,
    shard_journal_dir: Optional[Union[str, Path]] = None,
) -> TailAtScalePoint:
    """Drive one (cluster size, slow fraction) configuration and report
    the p50/p99 of the fan-in-synchronised end-to-end latency.

    With *trace_dir* set (implies ``trace=True``), the sampled traces
    export there as Perfetto and OTLP JSON named by the cell. *slo*
    attaches live objectives (spec strings or :class:`SLO` objects)
    whose verdicts ride the returned point.

    ``shards > 1`` runs the cell on the sharded parallel core
    (:func:`repro.shard.measure_fanout_sharded`): one worker process
    per shard, synchronised by conservative time windows. Requires a
    *network* whose propagation has a positive minimum (otherwise the
    planner falls back to one shard with a ``RuntimeWarning``).
    *audit* works under shards too — it runs the merged cross-shard
    conservation audit on the per-shard finalize counters; *trace* and
    *slo* remain single-simulator-only and are refused. *fault_plan*
    under shards may carry ``shard_kill``/``shard_hang`` chaos (the
    supervisor recovers and results must not change); under
    ``shards=1`` it arms the ordinary in-simulation
    :class:`~repro.faults.FaultInjector`. A sharded point carries the
    coordinator counters as a ``shard_sync`` attribute, which the run
    manifest summarises.
    """
    options = RunOptions.pick(locals())
    if shards > 1:
        from ..shard.fanout import measure_fanout_sharded, shard_sync_counters

        requested = options.point_options()
        if trace and trace_requested(trace, trace_dir):
            requested["trace"] = trace
        journal_path = None
        if shard_journal_dir is not None:
            journal_path = (
                Path(shard_journal_dir)
                / f"shard_journal_size{cluster_size}_slow{slow_fraction:g}.jsonl"
            )
        result = measure_fanout_sharded(
            cluster_size, slow_fraction, qps=qps,
            num_requests=num_requests, slow_factor=slow_factor,
            seed=seed, network=network, journal_path=journal_path,
            **runner_kwargs(
                measure_fanout_sharded, requested,
                f"the fan-out cluster with shards={shards}",
            ),
        )
        point = TailAtScalePoint(
            cluster_size=cluster_size,
            slow_fraction=slow_fraction,
            p50=result["p50"],
            p99=result["p99"],
            requests=result["requests"],
            shard_recovery=(
                result["recovery"] if result["restarts"] else None
            ),
        )
        # Non-declared attribute, as on sharded SweepPoints: equality
        # and journal round-trips ignore it.
        point.shard_sync = shard_sync_counters(result)
        return point
    trace = implied_trace(trace, trace_dir)
    world = build_fanout_cluster(
        cluster_size, slow_fraction, slow_factor, seed=seed,
        network=network,
    )
    if fault_plan is not None:
        from ..faults import FaultInjector

        FaultInjector(
            world.sim, world.deployment, world.cluster.network,
            fault_plan, cluster=world.cluster,
        ).arm()
    if trace:
        world.dispatcher.trace = trace
    client = OpenLoopClient(
        world.sim, world.dispatcher, arrivals=qps, max_requests=num_requests
    )
    # The fan-out run has no fixed horizon (it stops when the last of
    # num_requests resolves), so size the evaluation window from the
    # expected span of the run.
    expected_span = max(0.1, num_requests / max(qps, 1e-9) / 4.0)
    slos = resolve_slos(slo, window=expected_span)
    slo_monitor = None
    if slos:
        slo_monitor = SLOMonitor(
            world.sim, slos, interval=expected_span / 10.0
        )
        slo_monitor.attach(client)
        slo_monitor.start()
    clock_start = world.sim.now
    client.start()
    world.sim.run()
    if audit:
        audit_client(
            client, world.sim, dispatcher=world.dispatcher,
            clock_start=clock_start,
        )
    if trace and trace_dir is not None:
        base = Path(trace_dir)
        base.mkdir(parents=True, exist_ok=True)
        stem = f"size{cluster_size}_slow{slow_fraction:g}"
        traces = world.dispatcher.tracer.traces
        write_perfetto(base / f"{stem}.perfetto.json", traces)
        write_otlp(base / f"{stem}.otlp.json", traces)
    recorder = client.latencies
    return TailAtScalePoint(
        cluster_size=cluster_size,
        slow_fraction=slow_fraction,
        p50=recorder.p50(),
        p99=recorder.p99(),
        requests=len(recorder),
        slo=slo_monitor.summary() if slo_monitor is not None else None,
    )


def _measure_cell(
    size_and_fraction: Tuple[int, float], options: RunOptions, **kwargs
) -> TailAtScalePoint:
    """Picklable per-cell worker for the grid sweep: one
    :func:`measure_tail_at_scale` run under the sweep's *options*."""
    return measure_tail_at_scale(
        *size_and_fraction, trace=options.trace,
        shard_journal_dir=options.shard_journal_dir,
        **options.point_options(), **kwargs,
    )


def tail_at_scale_sweep(
    cluster_sizes: Sequence[int] = (5, 10, 50, 100, 500, 1000),
    slow_fractions: Sequence[float] = (0.0, 0.01, 0.05, 0.10),
    qps: float = 30.0,
    num_requests: int = 300,
    seed: int = 0,
    jobs: int = 1,
    run_dir: Optional[Union[str, Path]] = None,
    resume: bool = True,
    experiment: str = "fig14",
    retries: int = 0,
    timeout: Optional[float] = None,
    audit: bool = False,
    trace_dir: Optional[Union[str, Path]] = None,
    trace_sample: float = 1.0,
    slo: Optional[SLOSpec] = None,
    shards: int = 1,
    network: Optional[NetworkFabric] = None,
    fault_plan=None,
    shard_timeout: Optional[float] = None,
    shard_restarts: Optional[int] = None,
):
    """The full Fig 14 grid. Each (size, fraction) cell simulates an
    independent cluster, so ``jobs > 1`` fans the grid out across
    processes with identical results.

    With *run_dir* set, finished cells are journaled there and
    ``resume=True`` skips them on restart — see
    :mod:`repro.runner.runstore`. With *trace_dir* set, every cell
    exports its sampled traces (at *trace_sample*) there as
    Perfetto/OTLP JSON. ``shards > 1`` runs every cell on the sharded
    parallel core (see :func:`measure_tail_at_scale`); combine with
    ``jobs=1``, since each cell then owns one worker process per
    shard.
    """
    options = RunOptions.pick(locals())
    grid = [
        (size, frac) for frac in slow_fractions for size in cluster_sizes
    ]
    cell = functools.partial(
        _measure_cell, options=options, qps=qps,
        num_requests=num_requests, seed=seed, network=network,
    )
    # Journal-key stability: older journals hashed a config without
    # the later knobs, so only non-default values contribute.
    config = {
        "qps": qps, "num_requests": num_requests, "audit": audit,
        **options.journal_config(options.trace),
    }
    if network is not None:
        config["network"] = repr(network)
    if fault_plan is not None and len(fault_plan):
        config["fault_plan"] = repr(fault_plan.sorted())
    return options.map(
        cell, grid, experiment=experiment, config=config,
        seeds=[seed] * len(grid),
        keys=[
            point_key(experiment, {"size": size, "frac": frac}, seed, config)
            for size, frac in grid
        ],
        manifest_extra=sweep_manifest_extra(options),
    )
