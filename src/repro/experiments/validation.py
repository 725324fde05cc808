"""Declarative definitions of every validation experiment (SSIV).

Each ``figN_*`` function runs the simulated AND "real" (testbed
surrogate, DESIGN.md SS1) sides of one paper figure and returns the
series the figure plots. Load grids and measurement windows default to
values that finish in minutes on a laptop; pass denser grids / longer
windows for higher-fidelity runs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..apps import (
    fanout,
    load_balanced,
    social_network,
    three_tier,
    thrift_echo,
    two_tier,
)
from ..testbed import RealismConfig
from .loadsweep import SweepPoint, load_latency_sweep
from .options import RunOptions

SweepPair = Dict[str, List[SweepPoint]]

RunDir = Optional[Union[str, Path]]


def _real_and_sim(
    build_world: Callable,
    loads: Sequence[float],
    duration: float,
    warmup: float,
    seed: int,
    options: RunOptions,
    experiment: str,
    **world_kwargs,
) -> SweepPair:
    """Run the same sweep with and without the realism layer.

    Both sides share the run directory when *options* has one: the
    journal is append-only and keys embed ``{experiment}/sim`` vs
    ``{experiment}/real``, so a whole multi-sweep figure checkpoints
    into one directory. With a trace directory set, both sides export
    per-load Perfetto/OTLP traces under
    ``{trace_dir}/{experiment}/{side}``. With ``shards > 1`` both sides
    run on the sharded parallel core through the builder's adapter
    runner (:mod:`repro.shard.adapter`); telemetry still merges at the
    root.
    """

    def side(name: str, side_seed: int, **realism: Any) -> List[SweepPoint]:
        knobs = options.requested()
        knobs.pop("trace_sample", None)
        if options.trace_dir is not None:
            knobs.update(
                trace=options.trace,
                trace_dir=Path(options.trace_dir) / experiment / name,
            )
        return load_latency_sweep(
            build_world, loads, duration, warmup, seed=side_seed,
            experiment=f"{experiment}/{name}", **knobs, **realism,
            **world_kwargs,
        )

    return {
        "sim": side("sim", seed),
        "real": side("real", seed + 7919, realism=RealismConfig()),
    }


#: Fig 5's four concurrency configurations: (nginx processes,
#: memcached threads).
FIG5_CONFIGS = ((8, 4), (8, 2), (4, 2), (4, 1))


def fig5_two_tier(
    configs: Sequence = FIG5_CONFIGS,
    loads_by_processes: Optional[Dict[int, Sequence[float]]] = None,
    duration: float = 0.4,
    warmup: float = 0.1,
    seed: int = 1,
    jobs: int = 1,
    run_dir: RunDir = None,
    resume: bool = True,
    audit: bool = False,
    trace_dir: RunDir = None,
    trace_sample: float = 1.0,
    slo: Optional[str] = None,
    scrape_interval: Optional[float] = None,
    shards: int = 1,
    shard_timeout: Optional[float] = None,
    shard_restarts: Optional[int] = None,
) -> Dict[str, SweepPair]:
    """Fig 5: 2-tier load-latency across thread/process configs."""
    options = RunOptions.pick(locals())
    loads_by_processes = loads_by_processes or {
        8: (10_000, 25_000, 40_000, 52_000, 60_000, 66_000),
        4: (5_000, 12_000, 20_000, 26_000, 30_000, 33_000),
    }
    results: Dict[str, SweepPair] = {}
    for nginx_procs, mc_threads in configs:
        key = f"nginx={nginx_procs}p,memcached={mc_threads}t"
        results[key] = _real_and_sim(
            two_tier, loads_by_processes[nginx_procs], duration, warmup,
            seed, options, f"fig5/{key}", nginx_processes=nginx_procs,
            memcached_threads=mc_threads,
        )
    return results


def fig6_three_tier(
    loads: Sequence[float] = (2_000, 5_000, 8_000, 10_500, 12_500),
    duration: float = 0.6,
    warmup: float = 0.15,
    seed: int = 1,
    jobs: int = 1,
    run_dir: RunDir = None,
    resume: bool = True,
    audit: bool = False,
    trace_dir: RunDir = None,
    trace_sample: float = 1.0,
) -> SweepPair:
    """Fig 6: 3-tier (NGINX-memcached-MongoDB) validation."""
    return _real_and_sim(three_tier, loads, duration, warmup, seed,
                         RunOptions.pick(locals()), "fig6")


def fig8_load_balancing(
    scale_outs: Sequence[int] = (4, 8, 16),
    loads_by_scale: Optional[Dict[int, Sequence[float]]] = None,
    duration: float = 0.3,
    warmup: float = 0.08,
    seed: int = 1,
    jobs: int = 1,
    run_dir: RunDir = None,
    resume: bool = True,
    audit: bool = False,
    trace_dir: RunDir = None,
    trace_sample: float = 1.0,
) -> Dict[int, SweepPair]:
    """Fig 8: p99 vs load for each scale-out factor."""
    options = RunOptions.pick(locals())
    loads_by_scale = loads_by_scale or {
        4: (10_000, 20_000, 30_000, 35_000, 38_000),
        8: (20_000, 40_000, 60_000, 70_000, 76_000),
        16: (40_000, 80_000, 105_000, 118_000, 126_000),
    }
    return {
        so: _real_and_sim(
            load_balanced, loads_by_scale[so], duration, warmup, seed,
            options, f"fig8/scale{so}", scale_out=so,
        )
        for so in scale_outs
    }


def fig10_fanout(
    fanouts: Sequence[int] = (4, 8, 16),
    loads: Sequence[float] = (2_000, 4_000, 6_000, 7_500, 8_600),
    duration: float = 0.4,
    warmup: float = 0.1,
    seed: int = 1,
    jobs: int = 1,
    run_dir: RunDir = None,
    resume: bool = True,
    audit: bool = False,
    trace_dir: RunDir = None,
    trace_sample: float = 1.0,
) -> Dict[int, SweepPair]:
    """Fig 10: p99 vs load for each fanout factor."""
    options = RunOptions.pick(locals())
    return {
        fo: _real_and_sim(
            fanout, loads, duration, warmup, seed, options,
            f"fig10/fanout{fo}", fanout_factor=fo,
        )
        for fo in fanouts
    }


def fig12a_thrift(
    loads: Sequence[float] = (10_000, 25_000, 40_000, 50_000, 56_000, 60_000),
    duration: float = 0.4,
    warmup: float = 0.1,
    seed: int = 1,
    jobs: int = 1,
    run_dir: RunDir = None,
    resume: bool = True,
    audit: bool = False,
    trace_dir: RunDir = None,
    trace_sample: float = 1.0,
) -> SweepPair:
    """Fig 12(a): Thrift echo RPC validation."""
    return _real_and_sim(thrift_echo, loads, duration, warmup, seed,
                         RunOptions.pick(locals()), "fig12a")


def fig12b_social_network(
    loads: Sequence[float] = (1_000, 3_000, 5_000, 6_500, 7_500),
    duration: float = 0.5,
    warmup: float = 0.12,
    seed: int = 1,
    jobs: int = 1,
    run_dir: RunDir = None,
    resume: bool = True,
    audit: bool = False,
    trace_dir: RunDir = None,
    trace_sample: float = 1.0,
    slo: Optional[str] = None,
    scrape_interval: Optional[float] = None,
    shards: int = 1,
    shard_timeout: Optional[float] = None,
    shard_restarts: Optional[int] = None,
) -> SweepPair:
    """Fig 12(b): Social Network end-to-end validation."""
    return _real_and_sim(social_network, loads, duration, warmup, seed,
                         RunOptions.pick(locals()), "fig12b")
