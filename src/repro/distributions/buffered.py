"""Block-buffered sampling: amortise numpy's per-call overhead.

A scalar ``rng.exponential()`` costs roughly a microsecond of Python/
numpy dispatch; drawing a block of 1024 costs barely more than one
scalar draw. :class:`BufferedSampler` exploits that: it draws blocks
through :meth:`Distribution.sample_many
<repro.distributions.base.Distribution.sample_many>` and serves scalars
from the buffer, turning the hottest stochastic call sites (stage
service times, open-loop inter-arrival gaps, network jitter) into list
indexing.

**Growth schedule.** A sampler's blocks are sized to its demand: the
first refill draws ``min(16, block)`` values and each later one twice
the previous, up to ``block`` (16, 32, 64, ..., 1024 by default). A
world of many streams that each serve a few dozen draws (the leaves of
a 500-way fan-out) therefore never draws values it does not use,
while a hot stream reaches full blocks within seven refills. The bound
this buys: a sampler holds at most about twice the draws it has served
(``max(16, 2 * served)``), and never more than ``block``.

**Determinism contract.** numpy ``Generator`` array draws consume the
underlying bit stream exactly like repeated scalar draws (verified for
every distribution in this library by ``tests/distributions/
test_buffered.py``), so a :class:`BufferedSampler` that is the *sole*
consumer of its generator yields the bitwise-identical value sequence a
scalar-drawing caller would have seen — same values, same generator end
state, block sizes and growth schedule irrelevant. The one requirement
is exclusivity: if another consumer draws from the same generator
between refills, that consumer observes the post-block state. Call
sites therefore attach buffered samplers to dedicated named streams
(see :meth:`repro.engine.RandomStreams.stream`).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import DistributionError
from .base import Distribution

#: Default cap on draws per refill: large enough to amortise numpy
#: dispatch (~1000x). Refills start at :data:`_FIRST_BLOCK` and double
#: up to it, so a stream that serves few draws never draws a whole one.
DEFAULT_BLOCK = 1024

#: Draws in a sampler's first refill (less when ``block`` is smaller).
_FIRST_BLOCK = 16


class BufferedSampler:
    """Serves scalar draws of one distribution from pre-drawn blocks.

    *block* is the largest refill; refills grow to it from
    ``min(16, block)`` by doubling (see the module docstring). The
    buffer is materialised as a plain Python list (``tolist()``) so
    serving a value is a list index returning a float — no numpy scalar
    boxing on the hot path.
    """

    __slots__ = ("dist", "rng", "block", "_next", "_values", "_idx")

    def __init__(
        self,
        dist: Distribution,
        rng: np.random.Generator,
        block: int = DEFAULT_BLOCK,
    ) -> None:
        if block < 1:
            raise DistributionError(f"block must be >= 1, got {block!r}")
        self.dist = dist
        self.rng = rng
        self.block = int(block)
        self._next = min(_FIRST_BLOCK, self.block)  # the next refill's size
        self._values: List[float] = []
        self._idx = 0

    def _refill(self, want: int = 0) -> None:
        """Draw the next block, or exactly *want* values when more are
        wanted at once — still a single numpy call and the same value
        sequence — and double the next one's size, up to ``block``."""
        size = self._next
        values = self.dist.sample_many(self.rng, max(size, want))
        self._values = values.tolist()
        self._idx = 0
        self._next = min(2 * size, self.block)

    def sample(self) -> float:
        """The next draw, exactly as a scalar ``dist.sample(rng)`` would
        have produced it (given sole ownership of ``rng``)."""
        idx = self._idx
        if idx >= len(self._values):
            self._refill()
            idx = 0
        self._idx = idx + 1
        return self._values[idx]

    def take(self, n: int) -> List[float]:
        """The next *n* draws, in stream order."""
        if n < 0:
            raise DistributionError(f"cannot take {n!r} samples")
        out: List[float] = []
        while len(out) < n:
            idx = self._idx
            values = self._values
            want = n - len(out)
            available = len(values) - idx
            if available <= 0:
                self._refill(want)
                continue
            chunk = min(want, available)
            out.extend(values[idx:idx + chunk])
            self._idx = idx + chunk
        return out

    @property
    def buffered(self) -> int:
        """Draws currently sitting in the buffer (telemetry/tests)."""
        return len(self._values) - self._idx

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BufferedSampler({self.dist!r}, block={self.block}, "
            f"buffered={self.buffered})"
        )
