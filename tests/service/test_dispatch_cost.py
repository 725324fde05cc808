"""Dispatch cost: a microservice scans only stages that may hold ready
work and starts nothing while no core is free.

Counted on a short two_tier point near the knee (the ``two_tier``
benchmark's load). Polling every stage on every pass made 57,816
``has_ready`` calls for the 4,731 batches started here (12.2 per
batch), and 2,941 of its 7,672 start attempts claimed a worker, found
no core and gave the worker back. Event-driven dispatch makes 12,750
calls for the same 4,731 batches and no failed start.
"""

from repro.apps import two_tier
from repro.service import queues
from repro.service.microservice import Microservice
from repro.workload import OpenLoopClient


def test_two_tier_dispatch_cost(monkeypatch):
    counts = {"has_ready": 0, "started": 0, "failed": 0}

    def counting(method):
        def wrapper(self):
            counts["has_ready"] += 1
            return method(self)
        return wrapper

    for cls in (queues.SingleQueue, queues._SubqueueMixin):
        monkeypatch.setattr(cls, "has_ready", counting(cls.has_ready))
    start = Microservice._start_execution

    def counting_start(self, stage):
        started = start(self, stage)
        counts["started" if started else "failed"] += 1
        return started

    monkeypatch.setattr(Microservice, "_start_execution", counting_start)

    world = two_tier(nginx_processes=8, memcached_threads=4, seed=5)
    client = OpenLoopClient(
        world.sim, world.dispatcher, arrivals=52000.0, stop_at=0.01
    )
    client.start()
    world.sim.run(until=0.01)

    assert len(client.latencies) > 300
    assert counts["started"] > 1000
    assert counts["failed"] == 0
    assert counts["has_ready"] < 4 * counts["started"], counts
