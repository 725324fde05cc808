"""Replicated measurements with convergence control: BigHouse's
methodology (run independent instances "until performance metrics
converge", :mod:`repro.analysis.convergence`) applied to full uqSim
experiments. Use it when a single measurement window is too noisy
(short windows, high percentiles, heavy-tailed services).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Union

import numpy as np

from ..analysis.convergence import StoppingRule, replicate
from ..apps.base import World
from ..faults import FaultPlan
from ..runner.runstore import RunSpan
from ..runner.seeding import derive_seed
from ..workload import RequestMix
from .loadsweep import SweepPoint, map_load_points, sweep_manifest_summary
from .options import RunOptions, SLOSpec


@dataclass
class ReplicatedPoint:
    """Converged estimate for one offered load."""

    offered_qps: float
    p99_mean: float
    p99_stderr: float
    mean_mean: float
    throughput_mean: float
    replications: int
    converged: bool
    points: List[SweepPoint]

    @property
    def p99_ci95(self) -> float:
        """95% confidence half-width of the p99 estimate."""
        return 1.96 * self.p99_stderr


def replicate_at_load(
    build_world: Callable[..., World],
    qps: float,
    duration: float = 0.4,
    warmup: float = 0.1,
    mix: Optional[RequestMix] = None,
    min_replications: int = 3,
    max_replications: int = 12,
    tolerance: float = 0.1,
    seed: int = 1,
    jobs: int = 1,
    run_dir: Optional[Union[str, Path]] = None,
    resume: bool = True,
    timeout: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    audit: bool = False,
    slo: Optional[SLOSpec] = None,
    scrape_interval: Optional[float] = None,
    shards: int = 1,
    shard_timeout: Optional[float] = None,
    shard_restarts: Optional[int] = None,
    **world_kwargs,
) -> ReplicatedPoint:
    """Repeat a load point until the relative standard error of its
    per-replication p99 is under *tolerance*, between
    *min_replications* and *max_replications*; replication *k* is
    seeded with ``derive_seed(seed, float(qps), k)``.

    The execution options are :class:`RunOptions` fields, as for
    :func:`~repro.experiments.loadsweep.load_latency_sweep`, except
    trace export (replications at one load would overwrite each other's
    files). The first ``min_replications`` run at once, then ``jobs``
    at a time, so any ``jobs`` gives the same result; with *run_dir*
    set every replication is journaled, even one past the converged
    prefix, which the result drops.
    """
    rule = StoppingRule(min_replications, max_replications, tolerance)
    options = RunOptions.pick(locals())
    # Loaded here, like the pool it sizes rounds for.
    from ..runner.parallel import resolve_jobs

    measured: List[SweepPoint] = []
    span = RunSpan()

    def run(indices: range) -> List[SweepPoint]:
        # Each round rewrites the run manifest, so its summary, resumed
        # count and wall time cover every round so far.
        measured.extend(map_load_points(
            build_world, [qps] * len(indices),
            [derive_seed(seed, float(qps), k) for k in indices],
            [{"qps": float(qps), "replication": k} for k in indices],
            duration, warmup, "replication", options, mix=mix,
            summary=lambda new: sweep_manifest_summary(measured + new),
            span=span,
            **world_kwargs,
        ))
        return measured[indices.start:]

    points, p99_mean, p99_stderr, converged = replicate(
        rule, run, lambda point: point.p99,
        round_size=resolve_jobs(options.jobs),
    )
    return ReplicatedPoint(
        offered_qps=qps,
        p99_mean=p99_mean,
        p99_stderr=p99_stderr,
        mean_mean=float(np.mean([p.mean for p in points])),
        throughput_mean=float(np.mean([p.throughput for p in points])),
        replications=len(points),
        converged=converged,
        points=points,
    )
