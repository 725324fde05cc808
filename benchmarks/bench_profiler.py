"""Engine self-profiler: overhead guard and hotspot artifact.

Two guarantees of the profiling layer, checked on every push:

* **A disabled profiler is free.** ``Simulator.profiler`` defaults to
  ``None`` and the one run loop pays one ``is None`` branch per
  event; the raw
  engine event rate must stay within measurement noise of the
  ``bench_scalability.py`` baseline recorded earlier in the same
  session (same 2%-or-observed-noise budget as ``bench_tracing.py``).
* **An enabled profiler changes nothing but the clock.** A profiled
  simulation produces latency statistics identical to the unprofiled
  run, and its hotspot summary lands in ``BENCH_engine.json`` plus a
  standalone JSON artifact for CI upload.
"""

import json
import os
from pathlib import Path

from repro.apps import two_tier
from repro.engine import EngineProfiler
from repro.experiments.loadsweep import measure_at_load

from . import conftest as bench
from .bench_scalability import raw_engine_throughput
from .conftest import bench_record, run_once, scaled

#: Where the profiled run writes its standalone hotspot artifact.
PROFILE_JSON = Path(
    os.environ.get("REPRO_PROFILE_JSON", "trace_artifacts/engine_profile.json")
)

QPS = 20_000


def test_profiler_off_throughput_within_noise(benchmark, emit):
    rates = run_once(
        benchmark,
        lambda: [raw_engine_throughput(100_000) for _ in range(3)],
    )
    rate = max(rates)
    spread = (max(rates) - min(rates)) / max(rates)
    tolerance = max(0.02, 2.0 * spread)
    emit("\n=== Profiler: profiler-off engine throughput ===")
    emit(f"event loop: {rate / 1e3:.0f}k events/s "
         f"(spread {spread:.1%}, tolerance {tolerance:.1%})")
    payload = {
        "unprofiled_events_per_s": round(rate),
        "noise_spread": round(spread, 4),
    }
    baseline = None
    try:
        fresh = os.path.getmtime(bench.BENCH_JSON) >= bench._SESSION_START
        if fresh:
            with open(bench.BENCH_JSON) as fh:
                baseline = json.load(fh)["engine"]["raw_events_per_s"]
    except (OSError, ValueError, KeyError):
        baseline = None
    if baseline is not None:
        payload["baseline_events_per_s"] = baseline
        payload["ratio"] = round(rate / baseline, 4)
        emit(f"baseline (this session): {baseline / 1e3:.0f}k events/s "
             f"-> ratio {rate / baseline:.3f}")
        assert rate >= baseline * (1.0 - tolerance), (
            f"profiler-off engine rate {rate:.0f}/s fell more than "
            f"{tolerance:.1%} below the session baseline {baseline:.0f}/s"
        )
    else:
        emit("no fresh BENCH_engine.json baseline in this session; "
             "recorded the measurement only")
    bench_record("profiler", payload)


def _profiled_point(profiler):
    def build(seed):
        world = two_tier(seed=seed)
        world.sim.profiler = profiler
        return world

    return measure_at_load(
        build, QPS, duration=scaled(0.3), warmup=scaled(0.075)
    )


def test_profiled_run_is_bit_identical_and_writes_artifact(benchmark, emit):
    profiler = EngineProfiler()
    profiled = run_once(benchmark, _profiled_point, profiler)
    plain = measure_at_load(
        two_tier, QPS, duration=scaled(0.3), warmup=scaled(0.075)
    )
    # Wall-clock profiling must not leak into the simulation: every
    # statistic of the profiled run matches the unprofiled one exactly.
    assert profiled.completed == plain.completed
    assert profiled.mean == plain.mean
    assert profiled.p99 == plain.p99

    summary = profiler.summary(top=10)
    assert summary["events"] > 0
    assert summary["hotspots"], "profiled run recorded no hotspots"

    PROFILE_JSON.parent.mkdir(parents=True, exist_ok=True)
    profiler.write(PROFILE_JSON)
    assert PROFILE_JSON.exists()

    emit("\n=== Profiler: profiled two-tier point ===")
    emit(f"{summary['events']} events, "
         f"{summary['events_per_sec'] / 1e3:.0f}k events/s of handler "
         f"time -> {PROFILE_JSON}")
    for spot in summary["hotspots"][:3]:
        emit(f"  {spot['key']}: {spot['count']}x, "
             f"{spot['mean_us']:.1f}us mean")
    bench_record("profiler", {
        "profiled_events": summary["events"],
        "handler_events_per_s": round(summary["events_per_sec"]),
        "top_hotspot": summary["hotspots"][0]["key"],
    })
