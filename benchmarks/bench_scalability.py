"""Simulator scalability: raw event throughput and wall-clock cost of
simulating clusters of growing size.

Not a paper figure, but evidence for the title claim ("scalable
simulation"): event-processing rate should stay roughly flat as the
simulated cluster grows from 10 to 500 fanout leaves — cost per
simulated request scales with work done, not with world size.
"""

import time

from repro.engine import Simulator
from repro.experiments.tail_at_scale import build_fanout_cluster
from repro.telemetry import format_table
from repro.workload import OpenLoopClient

from .conftest import run_once, scaled_n


def raw_engine_throughput(n_events=200_000):
    sim = Simulator(seed=0)

    def chain():
        if sim.events_processed < n_events:
            sim.schedule(1e-6, chain)

    for _ in range(64):
        sim.schedule(0.0, chain)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return sim.events_processed / elapsed


def cluster_cost(cluster_size, requests):
    world = build_fanout_cluster(cluster_size, slow_fraction=0.0, seed=3)
    client = OpenLoopClient(
        world.sim, world.dispatcher, arrivals=30, max_requests=requests
    )
    client.start()
    start = time.perf_counter()
    world.sim.run()
    elapsed = time.perf_counter() - start
    return world.sim.events_processed, elapsed


def test_engine_event_throughput(benchmark, emit):
    rate = run_once(benchmark, raw_engine_throughput)
    emit(f"\n=== Scalability: raw engine throughput ===")
    emit(f"event loop: {rate/1e3:.0f}k events/s")
    assert rate > 50_000


def test_cluster_size_scaling(benchmark, emit):
    requests = scaled_n(60)

    def sweep():
        return {
            size: cluster_cost(size, requests)
            for size in (10, 50, 200, 500)
        }

    results = run_once(benchmark, sweep)
    emit("\n=== Scalability: per-event cost vs simulated cluster size ===")
    rows = []
    rates = {}
    for size, (events, elapsed) in results.items():
        rate = events / elapsed
        rates[size] = rate
        rows.append([size, events, round(elapsed, 2), round(rate / 1e3)])
    emit(format_table(
        ["cluster size", "events", "wall s", "k events/s"], rows
    ))
    # Event rate must not collapse with world size (>= 1/4 of small-world
    # rate even at 50x the cluster size).
    assert rates[500] > rates[10] / 4
