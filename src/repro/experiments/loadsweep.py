"""Load-latency sweeps: the measurement harness behind every
validation figure.

The paper's methodology (SSIV): drive the application with an open-loop
client at a fixed offered load, measure mean and tail (p99) latency,
repeat across loads up to and past saturation, and compare the
simulated curve against the real system's. Here both curves come from
:func:`load_latency_sweep` — the "real" one from a world built with a
:class:`~repro.testbed.RealismConfig`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..apps.base import World
from ..errors import ReproError
from ..faults import FaultInjector, FaultPlan
from ..runner import derive_seed, point_key, register_result_type
from ..telemetry.export import write_otlp, write_perfetto
from ..telemetry.slo import SLOMonitor
from ..telemetry.tracing import TraceConfig, trace_requested
from ..workload import OpenLoopClient, RequestMix
from .audit import audit_client
from .options import (
    RunOptions,
    SLOSpec,
    implied_trace,
    resolve_slos,
    runner_kwargs,
)


def slo_manifest_summary(results: Sequence[Any]) -> Dict[str, Any]:
    """Aggregate per-point SLO verdicts into the ``{"slo": ...}``
    manifest block (breaches / breached points / time in breach per
    objective, summed over the points that measured it)."""
    merged: Dict[str, Dict[str, Any]] = {}
    for result in results:
        summary = getattr(result, "slo", None)
        if not summary:
            continue
        for name, verdict in summary.items():
            agg = merged.setdefault(name, {
                "breaches": 0, "points_breached": 0,
                "time_in_breach_s": 0.0, "points": 0,
            })
            agg["points"] += 1
            agg["breaches"] += verdict.get("breaches", 0)
            agg["time_in_breach_s"] += verdict.get("time_in_breach_s", 0.0)
            if verdict.get("breaches", 0):
                agg["points_breached"] += 1
    return {"slo": merged} if merged else {}


def shard_recovery_manifest_summary(results: Sequence[Any]) -> Dict[str, Any]:
    """Aggregate per-point shard-supervisor recovery reports into the
    ``{"shard_recovery": ...}`` manifest block (total restarts and
    replayed rounds, plus per-shard attribution keyed by shard id,
    summed over the points that needed recovery)."""
    total_restarts = 0
    total_replayed = 0
    per_shard: Dict[str, Dict[str, Any]] = {}
    for result in results:
        recovery = getattr(result, "shard_recovery", None)
        if not recovery:
            continue
        total_restarts += recovery.get("restarts", 0)
        total_replayed += recovery.get("replayed_rounds", 0)
        for shard, report in (recovery.get("per_shard") or {}).items():
            agg = per_shard.setdefault(str(shard), {
                "restarts": 0, "replayed_rounds": 0, "failures": [],
            })
            agg["restarts"] += report.get("restarts", 0)
            agg["replayed_rounds"] += report.get("replayed_rounds", 0)
            agg["failures"].extend(report.get("failures", ()))
    if not total_restarts:
        return {}
    return {"shard_recovery": {
        "restarts": total_restarts,
        "replayed_rounds": total_replayed,
        "per_shard": per_shard,
    }}


def shard_sync_manifest_summary(results: Sequence[Any]) -> Dict[str, Any]:
    """Aggregate per-point coordinator counters into the
    ``{"shard_sync": ...}`` manifest block (rounds / messages / stalls
    / restarts plus the merged straggler ranking and per-shard restart
    attribution). Points ride the counters as a non-declared
    ``shard_sync`` attribute, so points resumed from a journal simply
    don't contribute."""
    totals = {
        "points": 0, "rounds": 0, "messages_exchanged": 0,
        "stalls": 0, "restarts": 0,
    }
    straggler: Dict[str, int] = {}
    per_shard_restarts: Dict[str, int] = {}
    shards = 0
    mode = None
    for result in results:
        sync = getattr(result, "shard_sync", None)
        if not sync:
            continue
        totals["points"] += 1
        totals["rounds"] += sync.get("rounds", 0)
        totals["messages_exchanged"] += sync.get("messages_exchanged", 0)
        totals["stalls"] += sync.get("stalls", 0)
        totals["restarts"] += sync.get("restarts", 0)
        shards = max(shards, sync.get("shards", 0))
        mode = sync.get("mode", mode)
        for shard, count in (sync.get("straggler_rounds") or {}).items():
            straggler[str(shard)] = straggler.get(str(shard), 0) + count
        for shard, count in (sync.get("per_shard_restarts") or {}).items():
            per_shard_restarts[str(shard)] = (
                per_shard_restarts.get(str(shard), 0) + count
            )
    if not totals["points"]:
        return {}
    block: Dict[str, Any] = dict(totals, shards=shards, mode=mode)
    if straggler:
        block["straggler_rounds"] = straggler
    if per_shard_restarts:
        block["per_shard_restarts"] = per_shard_restarts
    return {"shard_sync": block}


def sweep_manifest_extra(
    options: RunOptions,
) -> Optional[Callable[[Sequence[Any]], Dict[str, Any]]]:
    """The manifest blocks a sweep run under *options* records: shard
    recovery and coordinator counters when sharded, SLO verdicts when
    objectives were attached; ``None`` when there is nothing to add."""
    summaries = (
        [shard_recovery_manifest_summary, shard_sync_manifest_summary]
        if options.shards > 1 else []
    )
    if options.slo:
        summaries.append(slo_manifest_summary)
    if not summaries:
        return None

    def extra(results: Sequence[Any]) -> Dict[str, Any]:
        merged: Dict[str, Any] = {}
        for summary in summaries:
            merged.update(summary(results))
        return merged

    return extra


@register_result_type
@dataclass
class SweepPoint:
    """Measurements at one offered load."""

    offered_qps: float
    throughput: float  # completed per second in the window
    mean: float  # seconds
    p50: float
    p95: float
    p99: float
    completed: int
    #: Per-SLO verdicts (:meth:`SLOMonitor.summary`) when the point ran
    #: with ``--slo`` objectives; ``None`` otherwise. Optional with a
    #: default so journals written before SLOs existed still decode.
    slo: Optional[Dict[str, dict]] = None
    #: Shard-supervisor recovery report (restarts / replayed_rounds /
    #: per-shard attribution) when worker processes had to be rebuilt
    #: mid-run; ``None`` for unsharded or fault-free points, which
    #: keeps an unfaulted sharded point equal to its vanilla twin and
    #: lets journals written before supervision existed still decode.
    shard_recovery: Optional[dict] = None
    #: The point's ``timeseries.json`` document
    #: (:func:`repro.telemetry.scrape.timeline_payload`) when it ran
    #: with ``--scrape-interval``; ``None`` otherwise, so scrape-off
    #: points stay equal to points measured before scraping existed
    #: and old journals still decode.
    timeline: Optional[dict] = None

    @property
    def slo_breaches(self) -> int:
        """Total breach alerts across the point's objectives."""
        if not self.slo:
            return 0
        return sum(v.get("breaches", 0) for v in self.slo.values())

    @property
    def saturated(self) -> bool:
        """Heuristic: completions fell >10% short of the offered load."""
        return self.throughput < 0.9 * self.offered_qps

    def row(self) -> list:
        """Table row: load, throughput, mean/p99 in ms."""
        return [
            self.offered_qps,
            round(self.throughput, 1),
            self.mean * 1e3,
            self.p99 * 1e3,
        ]


def shard_journal_name(derived_seed: int) -> str:
    """Per-point replay-journal filename, keyed by the derived seed.

    The seed is derived from the full float load
    (:func:`~repro.runner.derive_seed`), so distinct points can never
    collide — unlike the old ``qps%g`` naming, where e.g. 1000000.0
    and 1000000.4 both formatted as ``qps1e+06``.
    """
    return f"shard_journal_seed{derived_seed}.jsonl"


def find_shard_journal(
    shard_journal_dir: Union[str, Path],
    derived_seed: int,
    qps: Optional[float] = None,
) -> Optional[Path]:
    """Locate a point's replay journal, old or new naming.

    Prefers the seed-keyed name; falls back to the legacy
    ``shard_journal_qps{qps:g}.jsonl`` name (journals written before
    the seed keying) when *qps* is given. Returns ``None`` when
    neither exists.
    """
    base = Path(shard_journal_dir)
    path = base / shard_journal_name(derived_seed)
    if path.exists():
        return path
    if qps is not None:
        legacy = base / f"shard_journal_qps{qps:g}.jsonl"
        if legacy.exists():
            return legacy
    return None


def measure_at_load(
    build_world: Callable[..., World],
    qps: float,
    duration: float = 1.0,
    warmup: float = 0.25,
    mix: Optional[RequestMix] = None,
    seed: int = 1,
    fault_plan: Optional[FaultPlan] = None,
    audit: bool = False,
    trace: Union[bool, TraceConfig] = False,
    trace_dir: Optional[Union[str, Path]] = None,
    slo: Optional[SLOSpec] = None,
    scrape_interval: Optional[float] = None,
    shards: int = 1,
    shard_timeout: Optional[float] = None,
    shard_restarts: Optional[int] = None,
    shard_journal_dir: Optional[Union[str, Path]] = None,
    **world_kwargs,
) -> SweepPoint:
    """Build a fresh world, drive it at *qps* for *duration* seconds,
    and report statistics over the post-warmup window.

    *slo* attaches live :class:`~repro.telemetry.slo.SLOMonitor`
    objectives (spec strings like ``"p99<5ms"`` or :class:`SLO`
    objects) to the client; the per-objective verdict summary rides the
    returned point's ``slo`` field.

    The world is rebuilt per point so measurements are independent; the
    seed is derived from the full float load via
    :func:`~repro.runner.derive_seed`, so even close loads (50.2 vs
    50.9 QPS) are decorrelated while the whole sweep stays
    reproducible — and the derivation is per-point, so a sweep gives
    identical results whether its points run serially or fanned out
    across processes.

    *fault_plan* arms a :class:`~repro.faults.FaultPlan` against the
    freshly-built world before the clock starts, so sweeps can measure
    behaviour under injected failures. *audit* runs the request
    conservation check (:func:`~repro.experiments.audit.audit_client`)
    after the window.

    *trace* enables dispatcher tracing for the point (``True`` or a
    :class:`~repro.telemetry.tracing.TraceConfig`); with *trace_dir*
    set, the sampled traces are exported there as Perfetto and OTLP
    JSON named after the offered load (setting *trace_dir* alone
    implies ``trace=True``). Tracing draws from its own named RNG
    stream, so the measured numbers are identical with or without it.

    ``shards > 1`` measures the point on the builder's sharded runner,
    which must accept every other option that is set (see
    :func:`~repro.experiments.options.runner_kwargs`).
    """
    if warmup >= duration:
        raise ReproError(
            f"warmup ({warmup}) must be shorter than duration ({duration})"
        )
    options = RunOptions.pick(locals())
    derived = derive_seed(seed, float(qps))
    if shards == 1:
        return measure_vanilla_point(
            build_world, qps, duration, warmup, derived, mix=mix,
            trace=trace, **options.point_options(), **world_kwargs,
        )
    # The sharded core replaces the whole build-world/client/run
    # pipeline, so it is an opt-in capability of the *builder*: models
    # advertise it with a ``sharded_runner`` hook returning the runner
    # (see repro.apps.builders). Anything else fails loudly rather than
    # silently measuring unsharded.
    name = getattr(build_world, "__name__", repr(build_world))
    load_runner = getattr(build_world, "sharded_runner", None)
    if load_runner is None:
        raise ReproError(
            f"builder {name!r} has no sharded runner; only topologies "
            f"ported to repro.shard support shards > 1 (run with shards=1)"
        )
    runner = load_runner()
    requested = options.point_options()
    if mix is not None:
        requested["mix"] = mix
    if trace and trace_requested(trace, trace_dir):
        requested["trace"] = trace
    journal_path = None
    if shard_journal_dir is not None:
        journal_path = Path(shard_journal_dir) / shard_journal_name(derived)
    return runner(
        qps=qps, duration=duration, warmup=warmup, seed=derived,
        journal_path=journal_path,
        **runner_kwargs(runner, requested, f"{name!r} with shards={shards}"),
        **world_kwargs,
    )


def measure_vanilla_point(
    build_world: Callable[..., World],
    qps: float,
    duration: float,
    warmup: float,
    derived_seed: int,
    *,
    mix: Optional[RequestMix] = None,
    fault_plan: Optional[FaultPlan] = None,
    audit: bool = False,
    trace: Union[bool, TraceConfig] = False,
    trace_dir: Optional[Union[str, Path]] = None,
    slo: Optional[SLOSpec] = None,
    scrape_interval: Optional[float] = None,
    **world_kwargs,
) -> SweepPoint:
    """The raw single-simulator measurement behind one sweep point.

    Split out of :func:`measure_at_load` so the sharded adapter's
    planner fallback (:func:`repro.shard.adapter.sharded_load_point`)
    can run the *identical* code path with the *identical*
    already-derived seed — which is what makes ``shards=1`` trivially
    bit-identical to vanilla. Callers are expected to have done the
    shard/tuning guard checks; *derived_seed* is used as-is.
    """
    trace = implied_trace(trace, trace_dir)
    world = build_world(seed=derived_seed, **world_kwargs)
    if trace:
        world.dispatcher.trace = trace
    if fault_plan is not None:
        FaultInjector(
            world.sim, world.deployment, world.cluster.network, fault_plan
        ).arm()
    client = OpenLoopClient(
        world.sim,
        world.dispatcher,
        arrivals=qps,
        mix=mix,
        stop_at=duration,
        realism=world.realism,
    )
    slos = resolve_slos(slo, window=max(0.05, min(1.0, duration - warmup)))
    slo_monitor = None
    if slos:
        slo_monitor = SLOMonitor(
            world.sim, slos, interval=max(duration / 100.0, 0.005)
        )
        slo_monitor.attach(client)
        slo_monitor.start(stop_at=duration)
    scraper = None
    if scrape_interval is not None:
        from ..telemetry.metrics import MetricsRegistry
        from ..telemetry.scrape import Scraper, scrape_tiers

        registry = MetricsRegistry()
        registry.instrument_world(world)
        scraper = Scraper(
            world.sim,
            interval=scrape_interval,
            tiers=scrape_tiers(world.deployment),
            client=client,
            registry=registry,
            stop_at=duration,
        ).start()
    clock_start = world.sim.now
    client.start()
    world.sim.run(until=duration)
    if audit:
        audit_client(
            client, world.sim, dispatcher=world.dispatcher,
            clock_start=clock_start,
        )
    timeline = None
    scrape_series = None
    if scraper is not None:
        from ..telemetry.scrape import timeline_payload

        scrape_series = scraper.snapshot()
        timeline = timeline_payload(
            scrape_series,
            interval=scrape_interval,
            meta={
                "qps": qps, "duration": duration, "warmup": warmup,
                "seed": derived_seed, "shards": 1,
            },
        )
    if trace and trace_dir is not None:
        traces = world.dispatcher.tracer.traces
        base = Path(trace_dir)
        base.mkdir(parents=True, exist_ok=True)
        stem = f"qps{qps:g}"
        write_perfetto(base / f"{stem}.perfetto.json", traces,
                       counters=scrape_series)
        write_otlp(base / f"{stem}.otlp.json", traces)
    if timeline is not None and trace_dir is not None:
        from ..telemetry.scrape import write_timeline

        base = Path(trace_dir)
        base.mkdir(parents=True, exist_ok=True)
        write_timeline(base / f"qps{qps:g}.timeseries.json", timeline)

    slo_summary = (
        slo_monitor.summary() if slo_monitor is not None else None
    )
    recorder = client.latencies
    completed = recorder.count(since=warmup, until=duration)
    if completed == 0:
        # Fully wedged system: report the offered load with infinite-ish
        # latency markers rather than crashing the sweep.
        return SweepPoint(qps, 0.0, float("inf"), float("inf"), float("inf"),
                          float("inf"), 0, slo=slo_summary,
                          timeline=timeline)
    window = (warmup, duration)
    return SweepPoint(
        offered_qps=qps,
        throughput=recorder.throughput(*window),
        mean=recorder.mean(since=warmup, until=duration),
        p50=recorder.percentile(50, since=warmup, until=duration),
        p95=recorder.percentile(95, since=warmup, until=duration),
        p99=recorder.percentile(99, since=warmup, until=duration),
        completed=completed,
        slo=slo_summary,
        timeline=timeline,
    )


def _config_token(value: Any) -> Any:
    """A deterministic, hashable stand-in for a config value.

    Primitives pass through; everything else (distributions, realism
    configs, fault plans, request mixes) contributes its ``repr``,
    which is deterministic for all of them — unlike a pickle, which
    could differ between interpreter versions and silently invalidate
    every journaled key.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_config_token(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _config_token(v) for k, v in value.items()}
    return repr(value)


def sweep_config(**settings: Any) -> Dict[str, Any]:
    """The code-relevant config dict a sweep hashes into its point
    keys and records in its manifest."""
    return {key: _config_token(value) for key, value in sorted(settings.items())}


def load_latency_sweep(
    build_world: Callable[..., World],
    loads: Sequence[float],
    duration: float = 1.0,
    warmup: float = 0.25,
    mix: Optional[RequestMix] = None,
    seed: int = 1,
    jobs: int = 1,
    run_dir: Optional[Union[str, Path]] = None,
    resume: bool = True,
    experiment: str = "load_latency",
    retries: int = 0,
    timeout: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    audit: bool = False,
    trace: Union[bool, TraceConfig] = False,
    trace_dir: Optional[Union[str, Path]] = None,
    slo: Optional[SLOSpec] = None,
    scrape_interval: Optional[float] = None,
    shards: int = 1,
    shard_timeout: Optional[float] = None,
    shard_restarts: Optional[int] = None,
    **world_kwargs,
) -> List[SweepPoint]:
    """One :func:`measure_at_load` per offered load, ascending.

    With ``jobs > 1`` the points run in parallel worker processes
    (each point already builds its own world from its own derived
    seed, so the results are identical to the serial run). *build_world*
    and *mix* must then be picklable — every builder in
    :mod:`repro.apps` is.

    With *run_dir* set, every completed point is journaled to that
    directory under a content key covering (*experiment*, the offered
    load, the derived seed, the sweep config); ``resume=True`` reuses
    journaled points instead of recomputing them, so a killed sweep
    restarted with the same arguments computes exactly the missing
    points — and, because seeds are derived per point, merges into a
    result byte-identical to an uninterrupted run. *retries*/*timeout*
    are the self-healing knobs of :func:`~repro.runner.parallel_map`.

    *trace*/*trace_dir* thread through to every point: traces export
    per load into *trace_dir*. Enabling tracing joins the sweep config
    (so journaled untraced points are not silently reused without
    producing trace files), but *trace_dir* itself does not — moving
    the output directory never invalidates a journal.
    """
    loads = sorted(loads)
    options = RunOptions.pick(locals())
    trace = implied_trace(trace, trace_dir)
    point = functools.partial(
        measure_at_load, build_world, duration=duration, warmup=warmup,
        mix=mix, seed=seed, trace=trace,
        shard_journal_dir=options.shard_journal_dir,
        **options.point_options(), **world_kwargs,
    )
    config = sweep_config(
        builder=getattr(build_world, "__name__", repr(build_world)),
        duration=duration,
        warmup=warmup,
        mix=mix,
        fault_plan=fault_plan,
        audit=audit,
        **options.journal_config(trace),
        **world_kwargs,
    )
    seeds = [derive_seed(seed, float(qps)) for qps in loads]
    return options.map(
        point, loads, experiment=experiment, config=config, seeds=seeds,
        keys=[
            point_key(experiment, {"qps": float(qps)}, derived, config)
            for qps, derived in zip(loads, seeds)
        ],
        manifest_extra=sweep_manifest_extra(options),
    )


def saturation_load(
    points: Sequence[SweepPoint],
    p99_limit: Optional[float] = None,
) -> float:
    """The highest offered load the system sustained.

    A point counts as sustained when throughput kept up with the
    offered load and (optionally) p99 stayed under *p99_limit* seconds.
    Returns 0.0 when even the lightest load saturated.
    """
    sustained = 0.0
    for point in sorted(points, key=lambda p: p.offered_qps):
        if point.saturated:
            break
        if p99_limit is not None and point.p99 > p99_limit:
            break
        sustained = point.offered_qps
    return sustained
