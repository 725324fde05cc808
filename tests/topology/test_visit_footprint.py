"""How many collector-tracked containers an in-flight visit holds.

A request that fans out to every leaf of a large cluster keeps one live
visit per leaf until the leaves answer. Every container those visits
hold (records, jobs, bound methods, argument tuples, events) is young
and tracked by CPython's cycle collector, so the count per visit sets
how often a fan-out request sets off collections that find nothing.
The visit path keeps it to a few records per visit: no partial or
closure is built per visit or per message.
"""

import gc

from repro.experiments.tail_at_scale import build_fanout_cluster
from repro.service import Request

LEAVES = 200
MAX_CONTAINERS_PER_VISIT = 10


def containers_per_leaf_visit():
    world = build_fanout_cluster(LEAVES, 0.0, seed=3)
    sim, dispatcher = world.sim, world.dispatcher
    # Warm up: one request end to end, so every pool, connection and
    # sampler block a request touches already exists.
    dispatcher.submit(Request(sim.now))
    sim.run()
    assert dispatcher.requests_completed == 1
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        dispatcher.submit(Request(sim.now))
        sim.run(until=sim.now + 100e-6)
        after = len(gc.get_objects())
    finally:
        if was_enabled:
            gc.enable()
    assert dispatcher.requests_completed == 1  # the second is in flight
    return (after - before) / LEAVES


def test_an_in_flight_leaf_visit_holds_few_containers():
    per_visit = containers_per_leaf_visit()
    assert per_visit <= MAX_CONTAINERS_PER_VISIT, (
        f"{per_visit:.2f} tracked containers per in-flight leaf visit"
    )
