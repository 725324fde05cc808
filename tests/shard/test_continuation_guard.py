"""The shard adapter refuses a continuation that follows a parent on
the instance it pins to.

A ``same_instance_as`` continuation rides its parent's incoming
connection. When that parent runs on the pinned instance, the message
goes towards the same instance as the one that brought the request in,
so two shards would stamp that direction's in-order sequence: the
upstream's shard for the original message and the instance's shard for
the continuation. The receiver then waits for a sequence number that
never comes, and the run completes nothing without an error.

The world is the core of world 1 from
``tests/topology/test_visit_identity.py``'s generator when it is
allowed continuations: ``n0`` on ``m1`` is fed by the client, ``n4``
continues on ``n0``'s instance after ``n3`` on ``m0``, and ``n6``
continues there after both ``n0`` and ``n4``.
"""

import pytest

from repro.apps.base import add_client_machine, new_world
from repro.errors import ShardingError
from repro.experiments.loadsweep import run_world
from repro.hardware import Machine
from repro.shard import run_world_sharded, validate_world_shardable
from repro.topology import PathNode, PathTree
from tests.topology.test_visit_identity import add_replica, uniform_hop_fabric

REQUESTS = 120
QPS = 800.0


def build_continuation_world(seed, after_own_instance=True, network=None):
    """``n0 -> n3 -> n4``, with ``n4`` and (optionally) ``n6`` pinned
    to ``n0``'s instance; ``n6`` has ``n0`` itself as a parent."""
    world = new_world(network or uniform_hop_fabric(), seed)
    add_client_machine(world)
    for name in ("m0", "m1"):
        world.cluster.add_machine(Machine(name, 24))
    add_replica(world, "m1", "svc0", 0, 150e-6)
    add_replica(world, "m0", "svc3", 0, 100e-6)
    tree = PathTree("continuations")
    tree.add_node(PathNode("n0", "svc0"))
    tree.add_node(PathNode("n3", "svc3"))
    tree.add_node(PathNode("n4", "svc0", same_instance_as="n0"))
    tree.add_edge("n0", "n3")
    tree.add_edge("n3", "n4")
    if after_own_instance:
        tree.add_node(PathNode("n6", "svc0", same_instance_as="n0"))
        tree.add_edge("n0", "n6")
        tree.add_edge("n4", "n6")
    world.dispatcher.add_tree(tree)
    return world


def test_vanilla_completes_the_world():
    run = run_world(build_continuation_world, QPS, 7, max_requests=REQUESTS)
    assert run.outcomes["ok"] == REQUESTS


def test_continuation_after_its_own_instance_is_refused():
    with pytest.raises(ShardingError, match="'n6' continues on 'svc0.0'"):
        validate_world_shardable(build_continuation_world(7))
    with pytest.raises(ShardingError, match="after parent 'n0'"):
        run_world_sharded(build_continuation_world, QPS, 7, 2, mode="inline",
                          max_requests=REQUESTS)


def test_continuation_after_another_instance_still_shards():
    kwargs = dict(after_own_instance=False, max_requests=REQUESTS)
    vanilla = run_world(build_continuation_world, QPS, 7, **kwargs)
    sharded = run_world_sharded(build_continuation_world, QPS, 7, 2,
                                mode="inline", **kwargs)
    assert sharded.shard_sync["shards"] == 2
    assert vanilla.outcomes["ok"] == REQUESTS
    assert sharded.latencies == vanilla.latencies
    assert sharded.outcomes == vanilla.outcomes
