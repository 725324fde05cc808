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
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

from ..apps.base import (
    World,
    add_client_machine,
    add_one_stage_service,
    new_world,
)
from ..distributions import Deterministic, Exponential
from ..errors import ConfigError
from ..hardware import Machine, NetworkFabric
from ..runner import point_key, register_result_type
from ..telemetry.tracing import TraceConfig
from ..topology import PathNode, PathTree
from .loadsweep import (
    WorldRun,
    export_artifacts,
    run_world,
    sweep_manifest_extra,
)
from .options import RunOptions, SLOSpec, implied_trace


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
    aggregator = add_one_stage_service(
        world, "aggregator", "agg", Deterministic(5e-6), cores=4
    )
    tree.add_node(PathNode("root", "agg"))
    for i in range(cluster_size):
        machine_name = f"leaf-node{i}"
        world.cluster.add_machine(Machine(machine_name, 1))
        mean = mean_service * (slow_factor if slow_mask[i] else 1.0)
        add_one_stage_service(
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

    ``shards > 1`` runs the cell through the generic shard adapter
    (:func:`repro.shard.adapter.run_world_sharded`): one worker process
    per shard, synchronised by conservative time windows. Requires a
    *network* whose propagation has a positive minimum (otherwise the
    planner falls back to one shard with a ``RuntimeWarning``).
    *audit* works under shards too — it runs the merged cross-shard
    conservation audit on the per-shard finalize counters; *trace* and
    *slo* are refused, as on every sharded run stopped by a request
    count rather than a horizon. *fault_plan* under shards may carry
    ``shard_kill``/``shard_hang`` chaos (the supervisor recovers and
    results must not change); under ``shards=1`` it arms
    in-simulation faults. Either way the run goes through
    :func:`tail_point`; a sharded point carries the coordinator
    counters as a ``shard_sync`` attribute, which the manifest sums.
    """
    RunOptions.pick(locals())  # refuses incoherent option combinations
    common = dict(
        max_requests=num_requests, fault_plan=fault_plan, audit=audit,
        trace=implied_trace(trace, trace_dir), slo=slo,
        cluster_size=cluster_size, slow_fraction=slow_fraction,
        slow_factor=slow_factor, network=network,
    )
    if shards == 1:
        run = run_world(build_fanout_cluster, qps, seed, **common)
    else:
        from ..shard.adapter import run_world_sharded

        journal_path = None
        if shard_journal_dir is not None:
            journal_path = (
                Path(shard_journal_dir)
                / f"shard_journal_size{cluster_size}_slow{slow_fraction:g}.jsonl"
            )
        run = run_world_sharded(
            build_fanout_cluster, qps, seed, shards,
            shard_timeout=shard_timeout, shard_restarts=shard_restarts,
            journal_path=journal_path, **common,
        )
    return tail_point(run, cluster_size, slow_fraction, trace_dir=trace_dir)


def tail_point(
    run: WorldRun,
    cluster_size: int,
    slow_fraction: float,
    *,
    trace_dir: Optional[Union[str, Path]] = None,
) -> TailAtScalePoint:
    """The :class:`TailAtScalePoint` of a count-terminated *run* from
    either executor: whole-run p50/p99 of the fan-in-synchronised
    latency, ``inf`` for a wedged cell where nothing completed. With
    *trace_dir* set, the run's traces export there named by the cell."""
    if trace_dir is not None:
        export_artifacts(
            trace_dir, f"size{cluster_size}_slow{slow_fraction:g}",
            run.root.get("traces") or [],
        )
    return run.annotate(TailAtScalePoint(
        cluster_size, slow_fraction, run.root.get("p50", math.inf),
        run.root.get("p99", math.inf), len(run.latencies),
        slo=run.root.get("slo"), shard_recovery=run.recovery,
    ))


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
