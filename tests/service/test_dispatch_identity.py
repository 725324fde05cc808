"""Dispatch identity pin: completion times of seeded worlds are fixed.

How a microservice finds its next batch (which stages it scans, when it
stops trying because no core is free) is an implementation choice that
must not move one simulated output. These digests were recorded from
the polling dispatcher, which asked every stage's queue on every pass
and claimed a worker for every ready stage even when no core was free.
A failed claim is not free of effects: a static thread pool rotates its
idle list, which moves context-switch charges, and a dynamic pool
spawns a thread that stays in the pool. So the worlds mix static and
dynamic pools with a nonzero context-switch cost, offered load around
saturation, connection blocking (which hides queued jobs) and
cancellation of queued jobs.

The second part runs ``two_tier`` past saturation, where HTTP blocking
hides client jobs behind each connection's holder.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.apps import two_tier
from repro.distributions import Exponential
from repro.engine import Simulator
from repro.service import (
    Connection,
    EpollQueue,
    ExecutionPath,
    Job,
    Microservice,
    MultiThreadedModel,
    PathSelector,
    Request,
    SingleQueue,
    SocketQueue,
    Stage,
)
from repro.workload import OpenLoopClient

from .conftest import make_cores

JOBS = 300
WORLDS = 40


def world_params(index):
    """The shape of world *index*, drawn from its own seed."""
    rng = np.random.default_rng(7000 + index)
    cores = int(rng.integers(1, 4))
    dynamic = bool(index % 2)
    return dict(
        cores=cores,
        threads=cores + int(rng.integers(1 if dynamic else 0, 5)),
        dynamic=dynamic,
        stages=int(rng.integers(1, 4)),
        load=float(rng.uniform(0.6, 1.3)),
        epoll_limit=int(rng.integers(1, 5)),
        later_socket=bool(rng.integers(0, 2)),
        blocking=index % 4 in (2, 3),
        cancel=index % 3 == 0,
        context_switch=float(rng.uniform(2e-6, 8e-6)),
    )


def run_world(index):
    p = world_params(index)
    sim = Simulator(seed=index)
    stages = [
        Stage("epoll", 0, EpollQueue(per_connection_limit=p["epoll_limit"]),
              base=Exponential(5e-6), per_job=Exponential(8e-6))
    ]
    for sid in range(1, p["stages"]):
        queue = SocketQueue(batch_limit=2) if p["later_socket"] else SingleQueue()
        stages.append(Stage(f"s{sid}", sid, queue, base=Exponential(30e-6)))
    if p["dynamic"]:
        model = MultiThreadedModel(
            p["cores"], context_switch=p["context_switch"], dynamic=True,
            max_threads=p["threads"],
        )
    else:
        model = MultiThreadedModel(
            p["threads"], context_switch=p["context_switch"]
        )
    svc = Microservice(
        "svc", sim, stages,
        PathSelector([ExecutionPath(0, "all", list(range(p["stages"])))]),
        make_cores(p["cores"], "svc"), model=model,
    )
    conns = [Connection(f"c{i}") for i in range(3)]
    mean_job = 13e-6 + 30e-6 * (p["stages"] - 1)
    gap = mean_job / (p["cores"] * p["load"])
    arrivals = sim.random.stream("test/arrivals")
    log = []

    def complete(index, job):
        log.append(("done", index, sim.now))
        if p["blocking"]:
            job.connection.unblock(job.request.request_id)

    def cancel(index, job):
        if svc.cancel_job(job):
            log.append(("cancel", index, sim.now))
            if p["blocking"]:
                job.connection.abandon(job.request.request_id)

    def arrive(index):
        conn = conns[int(arrivals.integers(0, 3))]
        job = Job(Request(sim.now), connection=conn)
        job.on_complete = lambda j: complete(index, j)
        if p["blocking"]:
            conn.block(job.request.request_id)
        svc.accept(job)
        if p["cancel"] and arrivals.random() < 0.15:
            sim.schedule(float(arrivals.exponential(4 * mean_job)),
                         cancel, index, job)
        if index + 1 < JOBS:
            sim.schedule(float(arrivals.exponential(gap)), arrive, index + 1)

    sim.schedule(0.0, arrive, 0)
    sim.run()
    log.append(("spawned", model.spawned_dynamically,
                [s.invocations for s in stages]))
    return hashlib.sha256(repr(log).encode()).hexdigest()


#: Recorded from the polling dispatcher.
EXPECTED = {
    0: '6c986645ff1bdc1a351a60fc4b95062a3134b1833aa63e3b8fe8ac248f131072',
    1: '43cbda7f2a866ceafcdcde7da9d4b1e977e805076e56e6ce6c92da79797e9b0e',
    2: '4dfc70fe383d588f86b4958b38cd424903eae9ab9774d3abb69a7fc5782cd702',
    3: '50add360755517b73e593623f77f6a56cb21037a7a206b0d6068603ba71b4c23',
    4: 'ea3b82e88b92cb92d2f7144edfeb169f9d88b1988ca1dea74091a16e88dda285',
    5: '8bd63fd07c571562502bf5bb02ddf27ecc5ebb182bfb449ce63bb59c47346a43',
    6: 'c5b035ddf25e0c9eaab8c785966123766de0352bc7f011691bfb9283cc38c2ee',
    7: '70f9067d3f8d4c605a313160f1806e2b4313f1bdaffaeb630d1fca26c45c89e3',
    8: '89f86a944eb233f913e1d69aa098361f3702ec9f5a997870204d34432566184b',
    9: '87866d7356ef9361e3d4e99f85665bd5c5e120dbf0fc4de8e967de406327761c',
    10: '1ee2d5a2473c7957656de5b92132dd2664f96f33b0c44d3a654405b6fc36fb60',
    11: 'e5489737a1bf7f62322670d6c027acb588dfd9f7b9b99ced87d1ffaf8893944e',
    12: 'fe0bb81bceb0257cfce4a255741ab201b7e6f50dda0d61414514e12b2466275b',
    13: 'f488130bf9aec490c00f2964275a4d2ca6c1473cb477852037f55e40601c945c',
    14: 'b33797247b571592d12e8cfda4eb7a59f7e0961f60273e069ea7480e0ab96721',
    15: '286327149dd6cd7d05991f8a61bb4dfe66cf179beb501c22952ce9a125e5badb',
    16: 'c819e81be0701d489ad280a0223d21b86ece5678a10d5a0d9e5d60df187e54a9',
    17: '22d2fec9b6b139e7a595ae90ac14fc310933db6eed8e4bbc175c25223763656b',
    18: '2f9c2f1b90eaef5220299584c0b2825a04d68c305f6186b09d7f5f07c24e9fc3',
    19: 'fb495e354e36be07b3b4331865ac7123d2579daed1d0cc4733e833e846808b4f',
    20: '4cfcce44f06b88ec98897828268ad32e00e20a95de11af9dbc59fae9f9f8baf2',
    21: '348250994a54b0d6fca599dc0a98389b8bc1709928d4dd005f4fc6b2e6a187c8',
    22: '953761eb8f4988f831f89f97dbbf6784c6a615b5d6177bbfb9e072d3df4e6b78',
    23: 'bcfb416d25fa888d465482496495c6e1ede917dcc906a494cba0e992a6867c7e',
    24: '0197bc32689b73fcdea9541986aceb0305d7ad2f8ea7ce86f195b0a117ccec3f',
    25: '1535c87de4171ccadf6956c2893fa4166e4b0d647dddabc843f784bbeb2ca978',
    26: '0db95121608fc9f98e3812c805df44c0ecd147f21acc48c1e3d8915220e252ec',
    27: 'df51bde78fab1b59b6224355ae0cab372ca36117e33c8127d289fe90bd645d78',
    28: 'f9c7c4f23fd4095bcbbf51e00c2d9248317a178ef4cf14832883f9ec6a88f451',
    29: '0474f26f312f99b2261ae767b016f4c9224b933906f871b21b4b64f010c8af16',
    30: '147f5b1211d46ff38f38d160aac051d40690f24d71b7b69d20b8bb3eb1758fcc',
    31: 'ea74ab605c175116c55dfb65658b1492d90baed24d93cab7ae368e1955de75de',
    32: 'db4c61a608d436a51fa8323db12f5fccd8957f6a0474afe6887e676b32f6fbf9',
    33: '58d2b4a732a8d42c5930ffc5ba5ead91bbf9963dd389ce5073a20f2bba773594',
    34: '000fc2d9a1c8d2f98e476a960a06a7167c4b77d53a1f0f2fea5495d1bc0bee60',
    35: '6177452af9f9f468760edf55a66ab12031b01044aec660b6cc04258a68eaf989',
    36: 'b441f4060845d65faff25deb9f9bc823bfc2230b23b242cb2e504b9c7e1d0483',
    37: '4c560434661bb6d79d6e73cc84bdc3988872a4ed05bd89f117011ffe0374637f',
    38: '6da387bea57c45ee23dd9513ceb62f335af48e793c9efe24d750c17536ff7006',
    39: 'cc6f36529075c660b2f8c9f300c9e0bc29e369130920f01cbff11b3b6a3d62dd',
}


def test_the_worlds_cover_the_dispatch_cases():
    params = [world_params(i) for i in range(WORLDS)]
    assert {p["cores"] for p in params} == {1, 2, 3}
    assert {p["stages"] for p in params} == {1, 2, 3}
    assert {p["dynamic"] for p in params} == {False, True}
    assert {p["blocking"] for p in params} == {False, True}
    assert {p["cancel"] for p in params} == {False, True}
    assert min(p["load"] for p in params) < 0.8
    assert max(p["load"] for p in params) > 1.1


@pytest.mark.parametrize("index", range(WORLDS))
def test_completion_digest(index):
    assert run_world(index) == EXPECTED[index]


def test_two_tier_overload_digest():
    world = two_tier(nginx_processes=8, memcached_threads=4, seed=7)
    client = OpenLoopClient(
        world.sim, world.dispatcher, arrivals=75000.0, stop_at=0.03
    )
    client.start()
    world.sim.run(until=0.03)
    times, latencies = client.latencies.samples()
    h = hashlib.sha256()
    h.update(np.asarray(times, dtype=np.float64).tobytes())
    h.update(np.asarray(latencies, dtype=np.float64).tobytes())
    h.update(json.dumps([
        sorted(client.outcomes.items()), client.requests_sent,
        world.dispatcher.attempts_launched, world.dispatcher.retries_issued,
    ]).encode())
    assert (client.requests_sent, len(latencies)) == (2256, 1902)
    assert h.hexdigest() == OVERLOAD_DIGEST


OVERLOAD_DIGEST = (
    "cf7119033ea8bc5aa584f814e177d84156abb5fe3cd0f5b2ca21a2d5c311265d"
)
