"""Shared benchmark plumbing.

Every bench regenerates one figure/table of the paper's evaluation and
prints its rows/series to the terminal (bypassing pytest capture so the
output survives ``pytest benchmarks/ --benchmark-only | tee ...``).

Set ``REPRO_BENCH_SCALE`` to scale measurement windows: 1.0 (default)
finishes the whole suite in tens of minutes; larger values tighten the
statistics at proportional cost. Set ``REPRO_BENCH_JOBS`` to fan sweep
points out across worker processes (0 = all cores) — results are
identical to the serial run, only the wall clock changes.
"""

import os

import pytest

from repro.runner import default_jobs_from_env

#: Multiplier on measurement windows / request counts.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Worker processes for sweep fan-out (``REPRO_BENCH_JOBS``, default 1).
JOBS = default_jobs_from_env("REPRO_BENCH_JOBS")


def scaled(seconds: float) -> float:
    return seconds * SCALE


def scaled_n(count: int) -> int:
    return max(10, int(count * SCALE))


@pytest.fixture
def emit(capfd):
    """Print to the real terminal, bypassing pytest capture."""

    def _emit(*parts):
        with capfd.disabled():
            print(*parts, flush=True)

    return _emit


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing.

    Rounds/iterations stay at 1: these are whole-figure reproductions
    measured in minutes, not microbenchmarks.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


def sweep_rows(pair):
    """Merge a {'sim': [...], 'real': [...]} sweep pair into table rows:
    load, sim mean/p99, real mean/p99 (ms)."""
    rows = []
    for sim_pt, real_pt in zip(pair["sim"], pair["real"]):
        rows.append([
            sim_pt.offered_qps,
            sim_pt.mean * 1e3, sim_pt.p99 * 1e3,
            real_pt.mean * 1e3, real_pt.p99 * 1e3,
        ])
    return rows


SWEEP_HEADERS = ["load QPS", "sim mean ms", "sim p99 ms",
                 "real mean ms", "real p99 ms"]


def presaturation_deviation(pair):
    """Mean |sim - real| of mean and p99 latency over pre-saturation
    points (the paper's accuracy metric, SSIV-A).

    A point is pre-saturation when both systems kept up with the
    offered load AND neither tail has left the low-load regime (p99
    within 5x of the lightest load's) — throughput alone can lag the
    knee by a point while queues are still filling the window.
    """
    sim_floor = pair["sim"][0].p99
    real_floor = pair["real"][0].p99
    mean_devs, tail_devs = [], []
    for sim_pt, real_pt in zip(pair["sim"], pair["real"]):
        if sim_pt.saturated or real_pt.saturated:
            continue
        if sim_pt.p99 > 5 * sim_floor or real_pt.p99 > 5 * real_floor:
            continue
        mean_devs.append(abs(sim_pt.mean - real_pt.mean))
        tail_devs.append(abs(sim_pt.p99 - real_pt.p99))
    if not mean_devs:
        return None, None
    return (sum(mean_devs) / len(mean_devs),
            sum(tail_devs) / len(tail_devs))
