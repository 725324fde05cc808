"""A world's sample buffers hold what their streams use, not whole
blocks: after a short run, every block-buffered sampler in a 200-leaf
fan-out holds at most ``max(16, 2 * served)`` values (the growth bound
of :mod:`repro.distributions.buffered`). With fixed 1,024-value blocks
each leaf would hold over a thousand values it never serves."""

import gc

from repro.distributions import BufferedSampler
from repro.experiments.tail_at_scale import build_fanout_cluster
from repro.workload import OpenLoopClient


def _samplers():
    return [o for o in gc.get_objects() if isinstance(o, BufferedSampler)]


def test_every_sampler_holds_at_most_twice_its_served_draws(monkeypatch):
    drawn = {}
    refill = BufferedSampler._refill

    def counted(self, *args):
        refill(self, *args)
        drawn[self] = drawn.get(self, 0) + len(self._values)

    monkeypatch.setattr(BufferedSampler, "_refill", counted)
    # Held, so no sampler made here can reuse an older one's id.
    older = _samplers()
    known = {id(s) for s in older}
    world = build_fanout_cluster(200, 0.01)
    client = OpenLoopClient(
        world.sim, world.dispatcher, arrivals=30.0, max_requests=2
    )
    client.start()
    world.sim.run()
    assert client.requests_sent == 2

    samplers = [s for s in _samplers() if id(s) not in known]
    # Each leaf's stage cost drew, so each leaf's sampler was refilled.
    assert sum(1 for s in samplers if s in drawn) >= 200
    for sampler in samplers:
        served = drawn.get(sampler, 0) - sampler.buffered
        assert sampler.buffered <= max(16, 2 * served), sampler
