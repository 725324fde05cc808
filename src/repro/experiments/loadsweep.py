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
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..apps.base import World
from ..errors import ReproError
from ..faults import FaultInjector, FaultPlan
from ..runner.runstore import RunSpan, point_key, register_result_type
from ..runner.seeding import derive_seed
from ..telemetry.export import write_otlp, write_perfetto
from ..telemetry.slo import SLOMonitor
from ..telemetry.tracing import TraceConfig
from ..workload import OpenLoopClient, RequestMix
from .audit import audit_client
from .options import RunOptions, SLOSpec, resolve_slos


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


def sweep_manifest_summary(results: Sequence[Any]) -> Dict[str, Any]:
    """The manifest blocks a sweep's *results* add: shard recovery and
    coordinator counters from sharded points, SLO verdicts from points
    that measured objectives. Each block is absent when no point
    carries what it sums."""
    return {
        **shard_recovery_manifest_summary(results),
        **shard_sync_manifest_summary(results),
        **slo_manifest_summary(results),
    }


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
    directory: Union[str, Path],
    derived_seed: int,
    qps: Optional[float] = None,
) -> Optional[Path]:
    """Locate a point's replay journal in *directory*, old or new
    naming.

    Prefers the seed-keyed name; falls back to the legacy
    ``shard_journal_qps{qps:g}.jsonl`` name (journals written before
    the seed keying) when *qps* is given. Returns ``None`` when
    neither exists.
    """
    base = Path(directory)
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
    trace_dir: Optional[Union[str, Path]] = None,
    slo: Optional[SLOSpec] = None,
    scrape_interval: Optional[float] = None,
    shards: int = 1,
    shard_timeout: Optional[float] = None,
    shard_restarts: Optional[int] = None,
    **world_kwargs,
) -> SweepPoint:
    """Build a fresh world, drive it at *qps* for *duration* seconds,
    and report statistics over the post-warmup window.

    The world is rebuilt per point so measurements are independent; the
    seed is derived from the full float load via
    :func:`~repro.runner.derive_seed`, so even close loads (50.2 vs
    50.9 QPS) are decorrelated while the whole sweep stays
    reproducible — and the derivation is per-point, so a sweep gives
    identical results whether its points run serially or fanned out
    across processes.

    The execution options are :class:`RunOptions` fields. With
    *trace_dir* set, the point's traces export there as Perfetto and
    OTLP JSON named after the offered load; tracing draws from its own
    named RNG stream, so the measured numbers are identical with or
    without it. *slo* verdicts ride the point's ``slo`` field.
    ``shards > 1`` measures through the shard adapter, which refuses a
    world it cannot shard with a :class:`~repro.errors.ShardingError`
    and runs the vanilla point when the planner falls back.
    """
    return _load_point(
        (qps, derive_seed(seed, float(qps))), build_world, duration, warmup,
        mix, RunOptions.pick(locals()), world_kwargs,
    )


def _load_point(
    item: Tuple[float, int],
    build_world: Callable[..., World],
    duration: float,
    warmup: float,
    mix: Optional[RequestMix],
    options: RunOptions,
    world_kwargs: Dict[str, Any],
) -> SweepPoint:
    """Picklable per-point worker of a load sweep: :func:`sweep_point`
    of one :func:`run_point` at the *item*'s load from its derived
    seed."""
    if warmup >= duration:
        raise ReproError(
            f"warmup ({warmup}) must be shorter than duration ({duration})"
        )
    qps, derived = item
    run = run_point(build_world, qps, derived, options, duration=duration,
                    warmup=warmup, mix=mix, **world_kwargs)
    return sweep_point(run, qps, duration, warmup, derived, options)


def run_point(
    build_world: Callable[..., World],
    qps: float,
    seed: int,
    options: RunOptions,
    *,
    journal_name: Optional[str] = None,
    **run_kwargs,
) -> "WorldRun":
    """The one run door of every measured point, and the one place the
    shard count picks the executor: :func:`run_world` on one shard,
    :func:`repro.shard.adapter.run_world_sharded` on more (which runs
    :func:`run_world` itself when its planner falls back). A sharded
    run under a run directory mirrors its replay journal to
    *journal_name* there (by default, named by *seed*). *run_kwargs*
    are the run's horizon, its request *mix* and the builder's
    keywords."""
    if options.shards == 1:
        return run_world(build_world, qps, seed, options, **run_kwargs)
    # Imported late so ``repro.shard`` stays an optional layer of the
    # import graph.
    from ..shard.adapter import run_world_sharded

    return run_world_sharded(build_world, qps, seed, options=options,
                             journal_name=journal_name, **run_kwargs)


@dataclass
class WorldRun:
    """One world run under an open-loop client, from either executor
    (:func:`run_world` or :func:`repro.shard.adapter.run_world_sharded`):
    what the client measured plus the coordinator's bookkeeping."""

    #: Latency samples and their completion times, in completion order.
    latencies: List[float]
    completions: List[float]
    #: Resolved requests by outcome.
    outcomes: Dict[str, int]
    #: Coordinator counters; ``None`` unsharded.
    shard_sync: Optional[dict]
    #: The supervisor's recovery report, or ``None`` when no worker had
    #: to be restarted — so an unfaulted run equals its vanilla twin.
    recovery: Optional[dict]
    #: The client's :func:`client_payload` plus, when on, ``slo``,
    #: ``traces`` and ``scrape`` (sharded: the client shard's finalize).
    root: dict
    #: Every shard's payload, indexed by shard id; ``[root]`` unsharded.
    results: List[dict]
    #: The coordinator's wall-clock runtime block; ``None`` unsharded.
    runtime: Optional[dict]

    def annotate(self, point: Any) -> Any:
        """*point*, carrying a sharded run's counters as a non-declared
        ``shard_sync`` attribute, which equality and journal
        round-trips ignore (resumed points simply lack it)."""
        if self.shard_sync is not None:
            point.shard_sync = self.shard_sync
        return point


def arm_faults(world: World, plan: FaultPlan) -> None:
    """Arm the fault *plan* against *world*'s instances, links and
    machines before its clock starts."""
    FaultInjector(
        world.sim, world.deployment, world.cluster.network, plan,
        cluster=world.cluster,
    ).arm()


def start_slo_monitor(client: OpenLoopClient, spec: Optional[SLOSpec],
                      qps: Optional[float], *,
                      duration: Optional[float] = None,
                      warmup: Optional[float] = None,
                      max_requests: Optional[int] = None,
                      ) -> Optional[SLOMonitor]:
    """Attach and start an :class:`SLOMonitor` for the objectives of
    *spec* on *client* (``None`` when no objective was asked for). A
    *duration* horizon sets the window from the post-*warmup* span and
    evaluates every 1% of it until the horizon; a run stopped after
    *max_requests* at *qps* has no horizon, so the window is sized from
    the expected span of the run; a run with neither (``repro run``
    draining its spec's client) gets a 1 s window evaluated every
    10 ms."""
    if duration is not None:
        window = max(0.05, min(1.0, duration - (warmup or 0.0)))
        interval = max(duration / 100.0, 0.005)
    elif max_requests is not None:
        window = max(0.1, max_requests / max(qps, 1e-9) / 4.0)
        interval = window / 10.0
    else:
        window, interval = 1.0, 0.01
    slos = resolve_slos(spec, window=window)
    if not slos:
        return None
    monitor = SLOMonitor(client.sim, slos, interval=interval)
    monitor.attach(client)
    monitor.start(stop_at=duration)
    return monitor


def client_payload(client: OpenLoopClient, warmup: Optional[float] = None,
                   until: Optional[float] = None) -> Dict[str, Any]:
    """What a finished *client* measured: counts, outcomes, latency
    samples and completion times, whole-run p50/p99 (when anything
    completed) and, given a *warmup*, the stats over ``[warmup, until]``
    as ``window``."""
    recorder = client.latencies
    times, values = recorder.samples()
    payload: Dict[str, Any] = dict(
        requests_sent=client.requests_sent,
        requests_completed=client.requests_completed,
        outcomes=dict(client.outcomes),
        completions=[float(t) for t in times],
        latencies=[float(v) for v in values],
    )
    if len(recorder):
        payload["p50"] = recorder.p50()
        payload["p99"] = recorder.p99()
    if warmup is not None:
        completed = recorder.count(since=warmup, until=until)
        window: Dict[str, Any] = {"completed": completed}
        if completed:
            window.update(
                throughput=recorder.throughput(warmup, until),
                mean=recorder.mean(since=warmup, until=until),
                p50=recorder.percentile(50, since=warmup, until=until),
                p95=recorder.percentile(95, since=warmup, until=until),
                p99=recorder.percentile(99, since=warmup, until=until),
            )
        payload["window"] = window
    return payload


def export_artifacts(directory: Union[str, Path], stem: str,
                     traces: Sequence[Any], counters: Optional[dict] = None,
                     timeline: Optional[dict] = None) -> None:
    """Write ``{stem}.perfetto.json`` (*traces* plus *counters* tracks)
    and ``{stem}.otlp.json`` into *directory*, and
    ``{stem}.timeseries.json`` when there is a *timeline*."""
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    write_perfetto(base / f"{stem}.perfetto.json", traces, counters=counters)
    write_otlp(base / f"{stem}.otlp.json", traces)
    if timeline is not None:
        from ..telemetry.scrape import write_timeline

        write_timeline(base / f"{stem}.timeseries.json", timeline)


def run_world(
    build_world: Callable[..., World],
    qps: float,
    seed: int,
    options: RunOptions = RunOptions(),
    *,
    duration: Optional[float] = None,
    warmup: Optional[float] = None,
    max_requests: Optional[int] = None,
    mix: Optional[RequestMix] = None,
    **world_kwargs,
) -> WorldRun:
    """Run *build_world* under an open-loop client on one simulator —
    the vanilla twin of :func:`repro.shard.adapter.run_world_sharded`.

    The client stops at the *duration* horizon (window stats cover the
    post-*warmup* span) and/or after *max_requests* arrivals; with no
    horizon the run ends when the last request resolves. *seed* is
    used as-is. The run itself, under *options*, is
    :func:`drive_world`.
    """
    if duration is None and max_requests is None:
        raise ReproError("a run needs a duration horizon and/or max_requests")
    world = build_world(seed=seed, **world_kwargs)
    client = OpenLoopClient(
        world.sim, world.dispatcher, arrivals=qps, mix=mix,
        max_requests=max_requests, stop_at=duration, realism=world.realism,
    )
    return drive_world(world, client, qps, options, duration=duration,
                       warmup=warmup, max_requests=max_requests)


def drive_world(
    world: World,
    client: OpenLoopClient,
    qps: Optional[float] = None,
    options: RunOptions = RunOptions(),
    *,
    duration: Optional[float] = None,
    warmup: Optional[float] = None,
    max_requests: Optional[int] = None,
) -> WorldRun:
    """Run a built *world* under its not-yet-started *client* until the
    *duration* horizon, or until the queue drains without one: the one
    run core of :func:`run_world` and ``repro run``.

    The options' tracing, fault plan, SLO monitor (cadence from
    :func:`start_slo_monitor`) and the scraper attach in that order
    before the client starts; the audit checks request conservation
    after the run. The root payload carries ``slo`` and ``scrape`` when
    they were on, and ``traces`` when the world's dispatcher traces —
    by the options' ``trace_dir``, or set on the world beforehand.
    """
    dispatcher = world.dispatcher
    if options.trace:
        dispatcher.trace = options.trace
    if options.fault_plan is not None:
        arm_faults(world, options.fault_plan)
    slo_monitor = start_slo_monitor(
        client, options.slo, qps, duration=duration, warmup=warmup,
        max_requests=max_requests,
    )
    scraper = None
    interval = options.scrape_interval
    if interval is not None:
        from ..telemetry.metrics import MetricsRegistry
        from ..telemetry.scrape import Scraper, scrape_tiers

        registry = MetricsRegistry()
        registry.instrument_world(world)
        scraper = Scraper(
            world.sim, interval=interval,
            tiers=scrape_tiers(world.deployment), client=client,
            registry=registry, stop_at=duration,
        ).start()
    clock_start = world.sim.now
    client.start()
    world.sim.run(until=duration)
    if options.audit:
        audit_client(client, world.sim, dispatcher=dispatcher,
                     clock_start=clock_start)
    root = client_payload(client, warmup, duration)
    if slo_monitor is not None:
        root["slo"] = slo_monitor.summary()
    if scraper is not None:
        root["scrape"] = {"interval": interval, "series": scraper.snapshot()}
    if dispatcher.trace:
        root["traces"] = list(dispatcher.tracer.traces)
    return WorldRun(root["latencies"], root["completions"], root["outcomes"],
                    shard_sync=None, recovery=None, root=root,
                    results=[root], runtime=None)


def sweep_point(run: WorldRun, qps: float, duration: float, warmup: float,
                seed: int, options: RunOptions = RunOptions()) -> SweepPoint:
    """The :class:`SweepPoint` of a horizon *run* at *qps* from derived
    *seed*, with its merged scrape timeline when the *options* scrape;
    with a ``trace_dir`` set, its traces and timeline export there named
    after the offered load."""
    series: Dict[str, dict] = {}
    timeline = None
    if options.scrape_interval is not None:
        from ..telemetry.scrape import timeline_payload

        # Tiers are machine-owned, so per-shard series names are
        # disjoint (the root alone contributes ``client/*``). Registry
        # scraping is vanilla-only, so the merged union carries a
        # vanilla run's names minus its ``counter/*`` and ``gauge/*``.
        for result in run.results:
            series.update((result.get("scrape") or {}).get("series", {}))
        shards = run.shard_sync["shards"] if run.shard_sync else 1
        timeline = timeline_payload(
            series, interval=options.scrape_interval,
            shard_runtime=run.runtime,
            meta={"qps": qps, "duration": duration, "warmup": warmup,
                  "seed": seed, "shards": shards},
        )
    if options.trace_dir is not None:
        traces = run.root.get("traces") or []
        export_artifacts(options.trace_dir, f"qps{qps:g}", traces,
                         counters=series or None, timeline=timeline)
    window = run.root.get("window") or {}
    if window.get("completed"):
        stats = [window[name] for name in
                 ("throughput", "mean", "p50", "p95", "p99", "completed")]
    else:
        # Fully wedged system: report the offered load with infinite
        # latency markers rather than crashing the sweep.
        stats = [0.0, math.inf, math.inf, math.inf, math.inf, 0]
    return run.annotate(SweepPoint(
        qps, *stats, slo=run.root.get("slo"), shard_recovery=run.recovery,
        timeline=timeline,
    ))


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
    timeout: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    audit: bool = False,
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
    result byte-identical to an uninterrupted run. *timeout* is the
    per-point hang budget of :func:`~repro.runner.parallel_map`.

    With *trace_dir* set, every point exports its traces there, named
    by load. Tracing joins the sweep config (so journaled untraced
    points are not silently reused without producing trace files), but
    *trace_dir* itself does not — moving the output directory never
    invalidates a journal.
    """
    return sweep_loads(
        build_world, loads, duration, warmup, seed, experiment,
        RunOptions.pick(locals()), mix=mix, trace_key=trace_dir is not None,
        **world_kwargs,
    )


def sweep_loads(
    build_world: Callable[..., World],
    loads: Sequence[float],
    duration: float,
    warmup: float,
    seed: int,
    experiment: str,
    options: RunOptions,
    *,
    mix: Optional[RequestMix] = None,
    trace_key: Union[bool, TraceConfig] = False,
    **world_kwargs,
) -> List[SweepPoint]:
    """:func:`load_latency_sweep` under ready *options*: one point per
    offered load, ascending, through :func:`map_load_points`.

    *trace_key* is the ``trace`` entry of the journal-key config, kept
    as each caller always wrote it: ``True`` for a sweep that was only
    given a trace directory, the sampled :class:`TraceConfig` for a
    validation figure's.
    """
    loads = sorted(loads)
    return map_load_points(
        build_world, loads, [derive_seed(seed, float(qps)) for qps in loads],
        [{"qps": float(qps)} for qps in loads], duration, warmup,
        experiment, options, mix=mix, trace_key=trace_key, **world_kwargs,
    )


def map_load_points(
    build_world: Callable[..., World],
    loads: Sequence[float],
    seeds: Sequence[int],
    specs: Sequence[Dict[str, Any]],
    duration: float,
    warmup: float,
    experiment: str,
    options: RunOptions,
    *,
    mix: Optional[RequestMix] = None,
    trace_key: Union[bool, TraceConfig] = False,
    summary: Callable[[List[Any]], Dict[str, Any]] = sweep_manifest_summary,
    span: Optional[RunSpan] = None,
    **world_kwargs,
) -> List[SweepPoint]:
    """One :func:`sweep_point` per load, each run from its derived seed
    in *seeds*, mapped and journaled by :meth:`RunOptions.map` (whose
    manifest adds the *summary* of the results, over the run *span*
    when this call is one round of a run): the one place load points
    get their journal keys, each from its point *spec*, its seed and
    the sweep config."""
    point = functools.partial(
        _load_point, build_world=build_world, duration=duration,
        warmup=warmup, mix=mix, options=options, world_kwargs=world_kwargs,
    )
    config = sweep_config(
        builder=getattr(build_world, "__name__", repr(build_world)),
        duration=duration,
        warmup=warmup,
        mix=mix,
        fault_plan=options.fault_plan,
        audit=options.audit,
        **options.journal_config(trace_key),
        **world_kwargs,
    )
    return options.map(
        point, list(zip(loads, seeds)), experiment=experiment,
        config=config, seeds=seeds,
        keys=[point_key(experiment, spec, derived, config)
              for spec, derived in zip(specs, seeds)],
        manifest_extra=summary, span=span,
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
