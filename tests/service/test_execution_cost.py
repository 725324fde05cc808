"""Execution cost: the Python-level calls a simulated run makes per
started batch.

A stage execution is most of a run's events, so its start and its
completion set the simulator's speed. Each world below runs a short
point under ``sys.setprofile`` and counts ``"call"`` events (Python
functions only; builtins report ``"c_call"``) over the whole simulated
run, then divides by the batches its stages started.

With one call per core-state change in each direction, a stage
execution's completion in one handler, fixed costs read from a table
and no claim-and-return or dispatch overhead on a simple model, the
two_tier point makes about 43 calls per batch and the social_network
point about 35; before them they made 53.05 and 44.41 (CPython 3.11).
The bounds leave headroom for other interpreter versions.
"""

import sys

import pytest

from repro.apps import social_network, two_tier
from repro.service.microservice import Microservice
from repro.workload import OpenLoopClient


def calls_per_batch(monkeypatch, build, arrivals, stop_at):
    services = []
    init = Microservice.__init__

    def registering(self, *args, **kwargs):
        init(self, *args, **kwargs)
        services.append(self)

    monkeypatch.setattr(Microservice, "__init__", registering)
    world = build()
    client = OpenLoopClient(
        world.sim, world.dispatcher, arrivals=arrivals, stop_at=stop_at
    )
    client.start()
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        world.sim.run(until=stop_at)
    finally:
        sys.setprofile(None)
    batches = sum(stage.invocations for svc in services for stage in svc.stages)
    assert len(client.latencies) > 100
    assert batches > 1000
    return calls / batches


@pytest.mark.parametrize("build, arrivals, stop_at, bound", [
    (lambda: two_tier(nginx_processes=8, memcached_threads=4, seed=5),
     52000.0, 0.01, 45.0),
    (lambda: social_network(seed=5), 5000.0, 0.05, 37.5),
], ids=["two_tier", "social_network"])
def test_calls_per_started_batch(monkeypatch, build, arrivals, stop_at, bound):
    per_batch = calls_per_batch(monkeypatch, build, arrivals, stop_at)
    assert per_batch <= bound, f"{per_batch:.2f} calls per started batch"
