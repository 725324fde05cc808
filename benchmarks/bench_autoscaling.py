"""Extension use case: horizontal autoscaling under diurnal load.

Not a paper figure — the cluster-management study the paper's
introduction motivates. Compares a webserver tier scaled by the
control-plane HPA against static provisioning at the same peak
capacity: the autoscaler should cut provisioned core-seconds
substantially while keeping the p99 in the same regime. Scale-ups pay
placement and cold start and scale-downs drain gracefully, and both
count as provisioned cost.
"""

from repro.apps.base import add_client_machine, new_world
from repro.apps.nginx import SERVE_PATH, build_nginx, make_nginx
from repro.controlplane import ControlPlane, HorizontalAutoscaler, ReplicaSpec
from repro.hardware import Machine
from repro.telemetry import format_table
from repro.topology import PathNode, PathTree
from repro.workload import DiurnalPattern, OpenLoopClient

from .conftest import run_once, scaled

REPLICAS = 8


def build_world(seed):
    world = new_world(seed=seed)
    client = add_client_machine(world)
    # The load generator owns the client machine, so the scheduler
    # never places a replica there.
    client.allocate("loadgen", client.num_cores)
    world.cluster.add_machine(Machine("server0", 24))
    world.dispatcher.add_tree(
        PathTree("serve").chain(PathNode("web", "web", path_name=SERVE_PATH))
    )
    return world


def run_case(autoscale, duration):
    world = build_world(seed=3)
    pattern = DiurnalPattern(low=4_000, high=32_000, period=duration / 2)
    if autoscale:
        cp = ControlPlane(world.sim, world.cluster, world.deployment)
        cp.apply(ReplicaSpec(
            "web", 2, 1,
            lambda name, machine, cores, version: build_nginx(
                world, name, machine.name, cores, tier="web"
            ),
        ))
        HorizontalAutoscaler(
            cp, "web", max_replicas=REPLICAS, decision_interval=0.25,
        ).start(stop_at=duration)
        cp.start(stop_at=duration)
    else:
        for i in range(REPLICAS):
            make_nginx(world, "server0", f"web{i}", processes=1, tier="web")
    client = OpenLoopClient(
        world.sim, world.dispatcher, arrivals=pattern, stop_at=duration
    )
    client.start()
    world.sim.run(until=duration)
    core_seconds = (
        cp.core_seconds("web") if autoscale else REPLICAS * duration
    )
    return {
        "p50": client.latencies.p50(since=duration * 0.1),
        "p99": client.latencies.p99(since=duration * 0.1),
        "completed": client.requests_completed,
        "core_seconds": core_seconds,
    }


def run_both(duration):
    return run_case(False, duration), run_case(True, duration)


def test_autoscaling_use_case(benchmark, emit):
    duration = max(30.0, scaled(30.0))
    static, scaled_case = run_once(benchmark, run_both, duration)
    emit("\n=== Use case: horizontal autoscaling under diurnal load ===")
    emit(format_table(
        ["variant", "p50 ms", "p99 ms", "completed", "core-seconds"],
        [
            ["static 8 replicas", static["p50"] * 1e3, static["p99"] * 1e3,
             static["completed"], round(static["core_seconds"], 1)],
            ["HPA (target 0.6)", scaled_case["p50"] * 1e3,
             scaled_case["p99"] * 1e3, scaled_case["completed"],
             round(scaled_case["core_seconds"], 1)],
        ],
    ))
    savings = 1 - scaled_case["core_seconds"] / static["core_seconds"]
    emit(f"capacity saved: {savings:.0%}")
    # The autoscaler must save meaningful capacity...
    assert savings > 0.3
    # ...without leaving the latency regime (within 5x of static p99).
    assert scaled_case["p99"] < 5 * static["p99"]
