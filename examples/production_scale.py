#!/usr/bin/env python3
"""Production-scale graphs: generate a random layered microservice
application (the shape of the paper's Fig 1 production graphs), measure
it with converged replications, and find its bottleneck.

Run:  python examples/production_scale.py
"""

from repro.analysis import bottleneck
from repro.apps import GraphShape, synthetic_graph
from repro.experiments import replicate_at_load
from repro.telemetry import Scraper, format_table, ms, scrape_tiers
from repro.workload import OpenLoopClient


def main() -> None:
    shape = GraphShape(layers=4, width=5, fanout=2, machines=4)
    print(f"Generating a {shape.total_services}-service application "
          f"({shape.layers} layers x {shape.width} wide, fanout "
          f"{shape.fanout})...")

    # Converged tail-latency estimate at moderate load.
    result = replicate_at_load(
        synthetic_graph, qps=800, duration=0.5, warmup=0.12,
        min_replications=3, max_replications=8, tolerance=0.1,
        shape=shape, graph_seed=12,  # ONE graph, independent runs
    )
    print(format_table(
        ["metric", "value"],
        [
            ["offered load (QPS)", result.offered_qps],
            ["replications", result.replications],
            ["converged", str(result.converged)],
            ["p99 (ms)", ms(result.p99_mean)],
            ["p99 95% CI (+/- ms)", ms(result.p99_ci95)],
            ["mean (ms)", ms(result.mean_mean)],
        ],
        title="Converged measurement",
    ))

    # One instrumented run to locate the bottleneck tier.
    world = synthetic_graph(shape, seed=12)
    scraper = Scraper(world.sim, interval=0.05, stop_at=0.5,
                      tiers=scrape_tiers(world.deployment))
    client = OpenLoopClient(world.sim, world.dispatcher, arrivals=800,
                            stop_at=0.5)
    scraper.start()
    client.start()
    world.sim.run(until=0.5)
    hot = bottleneck(scraper)
    peak = scraper.series[f"depth/{hot}"].values.max()
    print(f"\nhighest-utilisation service: {hot} "
          f"(peak queue depth {peak:.0f})")


if __name__ == "__main__":
    main()
