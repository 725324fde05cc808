"""The reference kernel that calibrates timed work against the host.

A shared host's speed wanders from second to second and from run to
run; in slow stretches it runs this kernel up to twice as slowly. The
timed child therefore runs the kernel right before and right after each
rep: a small, fixed discrete-event simulation of an M/M/2 queue written
in the same style as the simulator (a heap of timestamped callbacks,
small slotted objects, seeded exponential draws, dict and list
bookkeeping). It imports nothing from the simulator, so no change to
the simulator can change its cost. :func:`calibrated` uses it to scale
a measured time to the reference host at full speed (README, "Noise on
the reference host").
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from typing import Tuple

#: Jobs the kernel simulates; about 0.04 s on the reference host.
KERNEL_JOBS = 25_000

#: The kernel's result, which proves it did the same work every time.
EXPECTED = (25_000, 1_068_564)

#: The kernel's wall time on the reference host when it runs at full
#: speed. Calibrated times are scaled to it, so they read as seconds on
#: that host; it is a fixed constant, never re-measured.
REFERENCE_KERNEL_S = 0.04

#: How much of the kernel's slowdown the simulator feels: when a slow
#: stretch makes the kernel s times slower, the workloads run about
#: s ** SENSITIVITY times slower (the kernel, 1.9x; the workloads,
#: 1.5-1.7x). Measured on the reference host over three ten-seed
#: batches, where 0.6-0.8 gave the steadiest numbers.
SENSITIVITY = 0.7


def calibrated(seconds: float, kernel: float) -> float:
    """*seconds* measured while the kernel took *kernel* seconds, scaled
    to the reference host at full speed."""
    return seconds * (REFERENCE_KERNEL_S / kernel) ** SENSITIVITY


class _Job:
    __slots__ = ("arrived", "started")

    def __init__(self, arrived: float) -> None:
        self.arrived = arrived
        self.started = 0.0


class _Queue:
    """Two servers in front of one FIFO queue."""

    def __init__(self, sim: "_Sim") -> None:
        self.sim = sim
        self.waiting = []
        self.idle = 2
        self.done = 0
        self.buckets = {}

    def arrive(self, job: _Job) -> None:
        if self.idle:
            self.idle -= 1
            self.start(job)
        else:
            self.waiting.append(job)

    def start(self, job: _Job) -> None:
        job.started = self.sim.now
        self.sim.schedule(self.sim.rng.expovariate(1.0 / 1.6e-3),
                          self.finish, job)

    def finish(self, job: _Job) -> None:
        self.done += 1
        bucket = int((self.sim.now - job.arrived) * 1e4)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        if self.waiting:
            self.start(self.waiting.pop(0))
        else:
            self.idle += 1


class _Sim:
    def __init__(self, seed: int) -> None:
        self.now = 0.0
        self.heap = []
        self.seq = 0
        self.rng = random.Random(seed)

    def schedule(self, delay: float, handler, arg) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, handler, arg))

    def run(self) -> None:
        heap = self.heap
        while heap:
            self.now, _, handler, arg = heapq.heappop(heap)
            handler(arg)


def _client(sim: _Sim, queue: _Queue, jobs: int) -> None:
    def tick(left: int) -> None:
        queue.arrive(_Job(sim.now))
        if left > 1:
            sim.schedule(sim.rng.expovariate(1000.0), tick, left - 1)

    sim.schedule(0.0, tick, jobs)


def reference_kernel(jobs: int = KERNEL_JOBS) -> Tuple[int, int]:
    """Simulate *jobs* through the queue; return (completed, Σ buckets)."""
    sim = _Sim(seed=7)
    queue = _Queue(sim)
    _client(sim, queue, jobs)
    sim.run()
    return queue.done, sum(b * n for b, n in queue.buckets.items())


def timed_kernel() -> float:
    """Wall time of one :func:`reference_kernel`, collector paused so
    the size of whatever else is alive cannot change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = reference_kernel()
        wall = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if result != EXPECTED:
        raise RuntimeError(f"reference kernel returned {result}, not {EXPECTED}")
    return wall
