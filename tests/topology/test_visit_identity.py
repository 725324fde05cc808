"""Visit identity pin: seeded runs through random path DAGs are fixed.

How the dispatcher keeps a visit's book-keeping (how it finds a node's
children and fan-in, how a job finds its way back to its attempt, how a
lost message frees its in-order slot) is an implementation choice that
must not move one simulated output. These digests were recorded before
the visit path was rewritten to allocate less.

Each world is a random DAG of path nodes with fan-out, fan-in,
``same_instance_as`` continuations and connection ``block``/``unblock``
ops (``connection_of`` included), deployed over a few machines. The
worlds cover:

* resilience: none, timeouts, retries (with a circuit breaker) and
  hedges;
* loss: messages dropped at a partitioned link and by a network
  processing service that crashes and recovers mid-run — both must
  free the message's in-order delivery slot, or the connection wedges;
* fabrics: draw-free and stochastic wire delays.

The digest covers the client's completion log (times, outcomes,
attempts), the dispatcher's counters, every instance's job counts, the
spans of traced worlds and the event count. The first worlds are
shardable (single-instance services, one sink, no continuations, no
resilience, no loss), and their run through two inline shards of the
shard adapter must equal the vanilla run on a draw-free fabric whose
hops all take the same time: the adapter enters a fan-in node when the
last parent's message arrives, vanilla one hop after the last parent
leaves, and the two instants agree only when every hop is as long.
"""

import hashlib

import numpy as np
import pytest

from repro.apps.base import add_client_machine, make_netproc, new_world
from repro.distributions import Deterministic, Exponential, Shifted, Uniform
from repro.experiments.loadsweep import run_world
from repro.faults import FaultInjector, FaultPlan
from repro.hardware import Machine, NetworkFabric
from repro.resilience import (
    BreakerPolicy,
    HedgePolicy,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.service import (
    ExecutionPath,
    Microservice,
    PathSelector,
    SingleQueue,
    Stage,
)
from repro.shard import run_world_sharded
from repro.topology import NodeOp, PathNode, PathTree
from repro.workload import OpenLoopClient

WORLDS = 30
SHARDABLE = 6
REQUESTS = 120
RESILIENCE = ("timeout", "retry", "hedge", "none")
LOSSES = ("partition", "netproc", "none")


def draw_free_fabric():
    return NetworkFabric(
        propagation=Deterministic(40e-6), loopback=Deterministic(4e-6),
        bandwidth_bytes_per_s=1e9,
    )


def uniform_hop_fabric():
    """Draw-free, and a hop takes the same time whether or not it
    crosses machines (messages are small against the bandwidth)."""
    return NetworkFabric(
        propagation=Deterministic(40e-6), loopback=Deterministic(40e-6),
        bandwidth_bytes_per_s=1e15,
    )


def stochastic_fabric():
    return NetworkFabric(
        propagation=Shifted(Exponential(15e-6), 10e-6),
        bandwidth_bytes_per_s=1e9,
    )


def world_params(index):
    """The shape of world *index*, drawn from its own seed."""
    rng = np.random.default_rng(9100 + index)
    shardable = index < SHARDABLE
    return dict(
        shardable=shardable,
        nodes=int(rng.integers(4, 10)),
        machines=int(rng.integers(2, 5)),
        resilience="none" if shardable else RESILIENCE[index % 4],
        loss="none" if shardable else LOSSES[(index // 4) % 3],
        stochastic=bool(index % 2),
        netprocs=not shardable and bool(rng.integers(0, 4)),
        replicas=1 if shardable else int(rng.integers(1, 3)),
        join=shardable or bool(rng.integers(0, 2)),
        pool=int(rng.integers(1, 4)),
        traced=index % 3 == 0,
        qps=float(rng.uniform(400.0, 1400.0)),
        shape_seed=int(rng.integers(0, 2**31)),
    )


def _ancestors(parents, name):
    seen, stack = set(), list(parents[name])
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(parents[node])
    return seen


def add_replica(world, machine, service, index, mean):
    """Replica *index* of a one-stage *service* on *machine*."""
    name = f"{service}.{index}"
    stage = Stage("process", 0, SingleQueue(), base=Exponential(mean))
    world.deployment.add_instance(Microservice(
        name, world.sim, [stage],
        PathSelector([ExecutionPath(0, "only", [0])]),
        world.cluster.machine(machine).allocate(name, 1),
        machine_name=machine, tier=service,
    ))


def build_visit_world(seed, index, network=None):
    """World *index*: a random path DAG over a few machines."""
    p = world_params(index)
    rng = np.random.default_rng(p["shape_seed"])
    world = new_world(network or (
        stochastic_fabric() if p["stochastic"] else draw_free_fabric()
    ), seed)
    add_client_machine(world)
    machines = [f"m{i}" for i in range(p["machines"])]
    for name in machines:
        world.cluster.add_machine(Machine(name, 24))
        if p["netprocs"]:
            make_netproc(world, name, cores=1)
    # Nodes in topological order; node i >= 1 picks one to three
    # earlier parents, so fan-out and fan-in both arise.
    names = [f"n{i}" for i in range(p["nodes"])]
    parents = {names[0]: []}
    entries = 1 + (not p["shardable"] and bool(rng.integers(0, 3) == 0))
    for i, name in enumerate(names[1:], start=1):
        if i < entries:
            parents[name] = []
            continue
        fan_in = min(i, int(rng.choice([1, 1, 1, 2, 2, 3])))
        picks = rng.choice(i, size=fan_in, replace=False)
        parents[name] = [names[j] for j in sorted(picks)]
    machine_of, service_of, same_as = {}, {}, {}
    for i, name in enumerate(names):
        ancestors = sorted(_ancestors(parents, name))
        if ancestors and not p["shardable"] and rng.random() < 0.25:
            target = ancestors[int(rng.integers(0, len(ancestors)))]
            same_as[name] = target
            service_of[name] = service_of[target]
            machine_of[name] = machine_of[target]
            continue
        service = f"svc{i}"
        service_of[name] = service
        machine_of[name] = machines[int(rng.integers(0, len(machines)))]
        for r in range(p["replicas"]):
            mean = float(rng.uniform(60e-6, 300e-6))
            add_replica(world, machine_of[name], service, r, mean)
        world.deployment.set_pool(service, p["pool"])
        if p["replicas"] > 1:
            world.deployment.set_balancer(
                service, ("round_robin", "random")[i % 2]
            )
    # Ops. An entry node blocks its incoming (client) connection for
    # the request's whole stay, http/1.1-style: a descendant on the same
    # machine unblocks it by connection_of, or else the node itself on
    # leave. Other nodes block their own connection only while they run,
    # so no request holds a long block while it waits behind another's.
    on_enter, on_leave = {}, {}
    roots = [name for name in names if not parents[name]]
    for name in names:
        if parents[name] and rng.random() < 0.2:
            own = name if rng.random() < 0.5 else None
            on_enter[name] = NodeOp.block(connection_of=own)
            on_leave[name] = NodeOp.unblock(connection_of=own)
    for name in roots:
        if rng.random() >= 0.7:
            continue
        on_enter[name] = NodeOp.block()
        if p["join"] and name == names[0]:
            on_leave["join"] = NodeOp.unblock(connection_of=name)
            continue
        candidates = [
            d for d in names
            if d not in on_leave and machine_of[d] == machine_of[name]
            and name in _ancestors(parents, d)
        ]
        if candidates:
            d = candidates[int(rng.integers(0, len(candidates)))]
            on_leave[d] = NodeOp.unblock(connection_of=name)
        else:
            on_leave[name] = NodeOp.unblock()
    def sized():
        # Sizes are dispatcher decisions, which the shard adapter draws
        # from per-machine streams, so shardable worlds fix them.
        return not p["shardable"] and rng.random() < 0.3

    tree = PathTree(
        f"visits{index}",
        response_bytes=Uniform(200.0, 2000.0) if sized() else None,
    )
    for name in names:
        tree.add_node(PathNode(
            name, service_of[name],
            same_instance_as=same_as.get(name),
            on_enter=on_enter.get(name),
            on_leave=on_leave.get(name),
            request_bytes=Uniform(100.0, 4000.0) if sized() else None,
        ))
    for name in names:
        for parent in parents[name]:
            tree.add_edge(parent, name)
    if p["join"]:
        # One sink: the response is composed where the request entered
        # (on a shardable world, by another service on that machine).
        sinks = [n.name for n in tree.sinks]
        if p["shardable"]:
            add_replica(world, machine_of[names[0]], "joiner", 0, 50e-6)
            join = PathNode("join", "joiner", on_leave=on_leave.get("join"))
        else:
            join = PathNode("join", service_of[names[0]],
                            same_instance_as=names[0],
                            on_leave=on_leave.get("join"))
        tree.add_node(join)
        for sink in sinks:
            tree.add_edge(sink, "join")
    world.dispatcher.add_tree(tree)
    world.labels["machines"] = machines
    world.labels["edges"] = [
        (machine_of[parent], machine_of[name])
        for name in names for parent in parents[name]
        if machine_of[parent] != machine_of[name]
    ]
    world.labels["entry"] = machine_of[names[0]]
    return world


def resilience_policy(kind):
    if kind == "timeout":
        return ResiliencePolicy(timeout=4e-3)
    if kind == "retry":
        return ResiliencePolicy(
            timeout=3e-3,
            retry=RetryPolicy(max_attempts=3, backoff_base=5e-4,
                              jitter=2e-4),
            breaker=BreakerPolicy(failure_threshold=4, reset_timeout=5e-3),
        )
    if kind == "hedge":
        return ResiliencePolicy(
            timeout=8e-3, hedge=HedgePolicy(delay=1.5e-3, max_hedges=1)
        )
    return None


def fault_plan(world, index, loss):
    """Messages lost mid-run, from t=40 ms to t=70 ms."""
    plan = FaultPlan()
    if loss == "partition":
        edges = world.labels["edges"] or [("client", world.labels["entry"])]
        rng = np.random.default_rng(9300 + index)
        src, dst = edges[int(rng.integers(0, len(edges)))]
        plan.partition(0.04, src, dst).heal(0.07, src, dst)
    elif loss == "netproc":
        machines = world.labels["machines"]
        machine = machines[index % len(machines)]
        proc = world.deployment.netproc(machine).name
        disposition = ("fail", "drop")[index % 2]
        plan.crash(0.04, proc, disposition).recover(0.07, proc)
    return plan


def run_digest(index):
    p = world_params(index)
    world = build_visit_world(seed=index, index=index)
    client = OpenLoopClient(
        world.sim, world.dispatcher, arrivals=p["qps"],
        max_requests=REQUESTS, resilience=resilience_policy(p["resilience"]),
    )
    if p["traced"]:
        world.dispatcher.trace = True
    if p["loss"] != "none":
        FaultInjector(world.sim, world.deployment, world.cluster.network,
                      fault_plan(world, index, p["loss"]),
                      cluster=world.cluster).arm()
    client.start()
    world.sim.run(until=1.0)
    dispatcher = world.dispatcher
    log = [
        (r.created_at, r.completed_at, r.outcome, r.attempts)
        for r in client.completed_requests
    ]
    log.append((
        client.requests_sent, sorted(client.outcomes.items()),
        dispatcher.requests_submitted, dispatcher.requests_completed,
        dispatcher.requests_timed_out, dispatcher.requests_failed,
        dispatcher.requests_shed, dispatcher.attempts_launched,
        dispatcher.retries_issued, dispatcher.hedges_issued,
        dispatcher.messages_dropped,
    ))
    instances = list(world.deployment.all_instances)
    instances += list(world.deployment.netprocs.values())
    log.append(sorted(
        (i.name, i.jobs_accepted, i.jobs_completed, i.jobs_failed,
         i.pending_dispatch)
        for i in instances
    ))
    if p["traced"]:
        for trace in dispatcher.tracer.traces:
            log.append([
                (s.node, s.instance, s.attempt, s.enter, s.leave, s.status,
                 s.upstream)
                for s in trace.spans
            ])
    log.append((world.sim.now, world.sim.events_processed))
    return hashlib.sha256(repr(log).encode()).hexdigest(), client


#: Recorded before the visit path was rewritten.
EXPECTED = {
    0: '33725e8365a6c81cefe6a697819b04850385a6129b142f7cb6f53a4d0f4f6774',
    1: '87de983b7d4d9f38fac8062744ce0f1a6cf85e21cc207baca69f7a38221a349a',
    2: '4580ca4ef20a613718f5569b88f558b0eeb1a1c12c85f2e600b7072c87edefe5',
    3: '79d1ac9083596c953afd14a570e7a4c9699d2a68e975058a172afc5c8b1affc6',
    4: '14cf50434ffea666ade72e49b2a456aa45cb289c1ff2dac05afe545ef96b4d4a',
    5: 'f900f996cc2fc9b692b67ed8bd014e04ef8f7b25364bac09acbc90a8c0b2e678',
    6: '217c9f29ea8814c72a358065f16e210cc88e6b0588248af4169d97f9fccce445',
    7: 'c9549870ec0d85cb2316a60269f1a7010c8d33a2209e5e6b9d16489523e8de3e',
    8: 'ba41f948c426a7ef6ae7c4f084eedea07b6b91d6cd811fdd338c906c4f04ba15',
    9: '466afd5a2f34566094c9a35d089c8b56190cf82777bb6d14b864f2113ae990f2',
    10: '691699ba75030cb1dad0075b915e71f51a35bef7ec44dc471983e942ab05986c',
    11: '49ed77159cdc79630fbf3e24c947094c47a297169f909c3e68fbbae39b8095bf',
    12: '510f7ead1ab206a10386c0400af3ba2bbd9c643e4aca473cf20287100cdc8434',
    13: '964a0003c71580d2e6381560c8ea5b2a378c1c22e1cf985ee46b737fcf95e868',
    14: '498199782c41d8995a79c50ee82d92710a8c6cfdb08ece6fba46d5a277ef4638',
    15: '86229caab27546ee49830ba9cdf5a5fbca0ed1b29f5313a7da25a5adaa8573a2',
    16: 'f8826372a60a01bdcfdb461ed94309b1927128a047efad4d43a82d0204750079',
    17: 'ade6e484aecd3b4031b560d9493cedee9ae84fa78e777a8c6f602e055b9cdf90',
    18: 'b4c8183db3e6448f80174510b363fd22bafba35d97c372aaca2fbe1a9adb30cf',
    19: '3dcd8ea5adaed9a3123d3e76dbd7904bf31e87148873d574969b6fd548876180',
    20: 'e524d08b994c95f1fe36677bb4fdeab2222eb1e67b659fa16a3d607ac5b9ba59',
    21: 'b015a5921be8da6e393202f3c1762d4294cc46e4e734dae9b9b93cb633756f8d',
    22: '682e568ff901bfc32a6584e55ecab6aacc153a8dde325ec8a1e1415e71ded23b',
    23: 'b6dd612798e9dbed66574762f0db53b34954e445a704ec300ebadd16f3b42e78',
    24: 'c562dbea33b987c50aebd5ba55e2de9e0c54dad669c29a04aab91765aa3fb9de',
    25: 'bfd303dfffb33c5d961d3820fd73f3607746048d2f3aa4cb203bdd2b30127add',
    26: '47d6cbd1b70e2d87b7c4ad30ab3d3346df6e861b9b2dd533513db4c33ca92d06',
    27: '3e3452f87ad6e085f718191038ed3813ca1dde39d57764b5c200c465b26189f5',
    28: '3c93390de8d57a82c5434578d4287f0c8d70fa504f1b026dd3a63ca0623e279d',
    29: 'fc99af13e485f197a786aec3b9d0db9b5f7993bbd4acdcb2f4a499d3b8d84166',
}


def test_the_worlds_cover_the_visit_cases():
    params = [world_params(i) for i in range(WORLDS)]
    assert {p["resilience"] for p in params} == set(RESILIENCE)
    assert {p["loss"] for p in params} == set(LOSSES)
    assert {p["stochastic"] for p in params} == {False, True}
    assert {p["replicas"] for p in params} == {1, 2}
    assert {p["netprocs"] for p in params} == {False, True}
    assert {p["join"] for p in params} == {False, True}
    trees = [build_visit_world(seed=0, index=i).dispatcher._trees[0][0]
             for i in range(WORLDS)]
    nodes = [n for t in trees for n in t.nodes]
    assert any(t.fan_in(n.name) > 1 for t in trees for n in t.nodes)
    assert any(len(t.children(n.name)) > 1 for t in trees for n in t.nodes)
    assert any(len(t.roots) > 1 for t in trees)
    assert any(len(t.sinks) > 1 for t in trees)
    assert any(n.same_instance_as is not None for n in nodes)
    ops = [op for n in nodes for op in (n.on_enter, n.on_leave) if op]
    assert {op.action for op in ops} == {NodeOp.BLOCK, NodeOp.UNBLOCK}
    assert any(op.connection_of is not None for op in ops)
    assert any(op.connection_of is None for op in ops)


@pytest.mark.parametrize("index", range(WORLDS))
def test_visit_digest(index):
    digest, client = run_digest(index)
    p = world_params(index)
    assert client.requests_completed > 0
    if p["loss"] != "none" and p["resilience"] != "none":
        assert sum(client.outcomes.values()) == REQUESTS
    assert digest == EXPECTED[index]


@pytest.mark.parametrize("index", range(SHARDABLE))
def test_two_inline_shards_match_vanilla(index):
    kwargs = dict(index=index, max_requests=REQUESTS)
    qps = world_params(index)["qps"]
    vanilla = run_world(build_visit_world, qps, index,
                        network=uniform_hop_fabric(), **kwargs)
    sharded = run_world_sharded(build_visit_world, qps, index, 2,
                                mode="inline", network=uniform_hop_fabric(),
                                **kwargs)
    assert sharded.shard_sync["shards"] == 2
    assert vanilla.outcomes["ok"] == REQUESTS
    assert sharded.latencies == vanilla.latencies
    assert sharded.completions == vanilla.completions
    assert sharded.outcomes == vanilla.outcomes
