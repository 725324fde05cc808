#!/usr/bin/env python3
"""Autoscaling under a diurnal load: the control-plane HPA grows and
shrinks a webserver tier to track utilisation, trading provisioned
core-hours against latency. Scale-ups pay placement and cold start,
scale-downs drain gracefully.

Run:  python examples/autoscaling.py
"""

import numpy as np

from repro.apps.base import add_client_machine, new_world
from repro.apps.nginx import SERVE_PATH, build_nginx
from repro.controlplane import ControlPlane, HorizontalAutoscaler, ReplicaSpec
from repro.hardware import Machine
from repro.telemetry import MetricsRegistry, Scraper, format_table, ms
from repro.topology import PathNode, PathTree
from repro.workload import DiurnalPattern, OpenLoopClient

REPLICAS = 8


def main() -> None:
    world = new_world(seed=3)
    client_machine = add_client_machine(world)
    # The load generator owns the client machine, so the scheduler
    # never places a replica there.
    client_machine.allocate("loadgen", client_machine.num_cores)
    world.cluster.add_machine(Machine("server0", 24))
    world.dispatcher.add_tree(
        PathTree("serve").chain(PathNode("web", "web", path_name=SERVE_PATH))
    )

    metrics = MetricsRegistry()
    cp = ControlPlane(world.sim, world.cluster, world.deployment,
                      metrics=metrics)
    cp.apply(ReplicaSpec(
        "web", 2, 1,
        lambda name, machine, cores, version: build_nginx(
            world, name, machine.name, cores, tier="web"
        ),
    ))
    hpa = HorizontalAutoscaler(cp, "web", max_replicas=REPLICAS,
                               decision_interval=0.25)
    scraper = Scraper(world.sim, interval=0.25, registry=metrics,
                      stop_at=40.0)

    pattern = DiurnalPattern(low=4_000, high=32_000, period=20.0)
    client = OpenLoopClient(world.sim, world.dispatcher, arrivals=pattern,
                            stop_at=40.0)
    cp.start(stop_at=40.0)
    hpa.start(stop_at=40.0)
    scraper.start()
    client.start()
    print("Simulating 40 s of diurnal load over an autoscaled tier...")
    world.sim.run(until=40.0)

    ready = scraper.series['gauge/controlplane_ready_replicas{service="web"}']
    times, replicas = ready.resample(2.0, reducer=np.mean)
    rows = [
        [round(t, 1), round(pattern.rate(t)), round(r, 1)]
        for t, r in zip(times, replicas)
    ]
    print(format_table(["t (s)", "offered QPS", "ready replicas"], rows))

    core_seconds = cp.core_seconds("web")
    static_core_seconds = REPLICAS * 40.0
    print(format_table(
        ["metric", "value"],
        [
            ["requests completed", client.requests_completed],
            ["p50 (ms)", ms(client.latencies.p50(since=5.0))],
            ["p99 (ms)", ms(client.latencies.p99(since=5.0))],
            ["scale-ups / scale-downs",
             f"{hpa.scale_ups} / {hpa.scale_downs}"],
            ["core-seconds (autoscaled)", round(core_seconds)],
            ["core-seconds (static 8x)", round(static_core_seconds)],
            ["capacity saved",
             f"{1 - core_seconds / static_core_seconds:.0%}"],
        ],
        title="\nOutcome",
    ))


if __name__ == "__main__":
    main()
