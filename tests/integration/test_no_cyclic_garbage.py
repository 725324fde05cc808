"""Finished requests are freed by reference counting.

No model object may keep a reference back to the attempt that holds
it once that reference is spent, so a resolved request leaves no
reference cycle for CPython's cycle collector to find. Each case runs a
short point with the collector disabled and then asks it what it
finds.
"""

import gc

import pytest

from repro.apps import social_network, two_tier
from repro.distributions import Deterministic
from repro.engine import Event, EventQueue
from repro.experiments.resilience import build_single_tier
from repro.experiments.tail_at_scale import build_fanout_cluster
from repro.hardware import NetworkFabric
from repro.resilience import ResiliencePolicy, RetryPolicy
from repro.service import Job
from repro.shard.adapter import ShardedDispatcher, sharded_load_point
from repro.topology.dispatcher import _RequestGroup, _RequestState, _Visit
from repro.workload import OpenLoopClient


def _propagation():
    return NetworkFabric(propagation=Deterministic(100e-6))


def _two_tier():
    world = two_tier(nginx_processes=8, memcached_threads=4, seed=3)
    return world, dict(arrivals=20000.0, stop_at=0.02)


def _social_network():
    world = social_network(seed=3, network=_propagation())
    return world, dict(arrivals=3000.0, stop_at=0.04)


def _fanout():
    world = build_fanout_cluster(40, 0.1, seed=3)
    return world, dict(arrivals=200.0, max_requests=20)


def _retry_storm():
    # Unbudgeted retries at 1.2x the tier's capacity: most attempts
    # time out, so timeout cancellation and retries run throughout.
    policy = ResiliencePolicy(
        timeout=10e-3,
        retry=RetryPolicy(max_attempts=4, backoff_base=1e-3, jitter=1e-4),
    )
    world = build_single_tier(1e-3, seed=3)
    return world, dict(arrivals=1200.0, stop_at=0.3, resilience=policy)


@pytest.fixture
def collector_off():
    """Disable the collector for the test and restore its state."""
    was_enabled = gc.isenabled()
    debug = gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize(
    "build", [_two_tier, _social_network, _fanout, _retry_storm],
    ids=["two_tier", "social_network", "fanout", "retry_storm"],
)
def test_requests_leave_no_cyclic_garbage(build, collector_off):
    world, client_kwargs = build()
    client = OpenLoopClient(world.sim, world.dispatcher, **client_kwargs)
    client.start()
    gc.collect()
    world.sim.run()
    found = gc.collect()
    completed = client.requests_completed
    assert completed > 0
    if build is _retry_storm:
        assert client.outcomes["timeout"] > 0
        assert world.dispatcher.retries_issued > 0
    assert found < completed, (
        f"{found} cyclic-garbage objects after {completed} completed requests"
    )


def test_sharded_point_frees_finished_requests(collector_off):
    """The shard worlds of a point are dropped as cyclic garbage, and
    with them the requests still in flight at the horizon. Every
    request-level object in that garbage must belong to such a request
    (one the root shard has not resolved), and every event in it must
    still be pending in a shard's queue."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    point = sharded_load_point(
        social_network, 3000.0, 0.04, 0.01, 7, 2, mode="inline",
        network=_propagation(),
    )
    gc.collect()
    garbage = list(gc.garbage)
    gc.garbage.clear()
    assert point.completed > 0
    dispatchers = [o for o in garbage if isinstance(o, ShardedDispatcher)]
    assert len(dispatchers) == 2  # the point really ran on two shards
    (root,) = [d for d in dispatchers if d._host.is_root]
    in_flight = set(root._live)  # submitted and not yet resolved

    def of_resolved(kind):
        return [o for o in garbage if type(o) is kind
                and o.request.request_id not in in_flight]

    assert of_resolved(_RequestState) == []
    assert of_resolved(_RequestGroup) == []
    assert of_resolved(Job) == []
    visits = {id(v) for o in garbage if type(o) is _RequestState
              for v in o.visits.values()}
    assert all(id(o) in visits for o in garbage if type(o) is _Visit)
    pending = {id(entry[3]) for o in garbage if type(o) is EventQueue
               for entry in o._heap}
    assert all(id(o) in pending for o in garbage if type(o) is Event)
