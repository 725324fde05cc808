"""Network fabric: wire latency between machines.

uqSim models *network processing* (TCP/IP rx/tx, interrupt handling) as
a standalone per-machine service that colocated microservices share
(paper SSIII-B) — that part lives in the service layer, built by the
deployment. What belongs to the hardware layer is the propagation and
serialisation delay between two machines, which this module provides.

The default parameters approximate the paper's testbed: a 1 Gbps
switched network where an intra-rack RTT is a few tens of microseconds
and same-machine communication short-circuits through loopback.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

import numpy as np

from ..distributions import (
    DEFAULT_BLOCK,
    BufferedSampler,
    Deterministic,
    Distribution,
    Exponential,
)
from ..errors import FaultError, ResourceError

BYTES_PER_SECOND_1GBPS = 125_000_000.0


class NetworkFabric:
    """Latency model for machine-to-machine message transfer."""

    def __init__(
        self,
        propagation: Optional[Distribution] = None,
        loopback: Optional[Distribution] = None,
        bandwidth_bytes_per_s: float = BYTES_PER_SECOND_1GBPS,
    ) -> None:
        """
        *propagation* is the one-way wire+switch delay between distinct
        machines; *loopback* the kernel loopback delay for colocated
        services. Serialisation time (message bytes / bandwidth) is added
        on top for cross-machine messages.
        """
        if bandwidth_bytes_per_s <= 0:
            raise ResourceError(
                f"bandwidth must be positive, got {bandwidth_bytes_per_s!r}"
            )
        # ~20us mean switched-path delay; ~5us loopback.
        self.propagation = propagation or Exponential(20e-6)
        self.loopback = loopback or Deterministic(5e-6)
        self.bandwidth = float(bandwidth_bytes_per_s)
        # Fault-injection state: per-link delay multipliers and severed
        # links (both directions of a pair are keyed independently).
        self._link_factors: Dict[Tuple[str, str], float] = {}
        self._partitioned: Set[Tuple[str, str]] = set()

    # Fault injection -----------------------------------------------------

    def degrade_link(self, src: str, dst: str, factor: float) -> None:
        """Multiply the src<->dst delay by *factor* (>= 1), both ways.

        Models congestion or a flapping switch port on that path;
        :meth:`restore_link` undoes it.
        """
        if factor < 1.0:
            raise FaultError(f"link factor must be >= 1, got {factor!r}")
        self._link_factors[(src, dst)] = float(factor)
        self._link_factors[(dst, src)] = float(factor)

    def restore_link(self, src: str, dst: str) -> None:
        """Remove any degradation on the src<->dst link (both ways)."""
        self._link_factors.pop((src, dst), None)
        self._link_factors.pop((dst, src), None)

    def partition(self, src: str, dst: str) -> None:
        """Sever the src<->dst link: messages on it are silently lost
        until :meth:`heal` — only timeouts surface the black hole."""
        self._partitioned.add((src, dst))
        self._partitioned.add((dst, src))

    def heal(self, src: str, dst: str) -> None:
        """Reconnect a previously partitioned src<->dst link."""
        self._partitioned.discard((src, dst))
        self._partitioned.discard((dst, src))

    def is_partitioned(self, src_machine: str, dst_machine: str) -> bool:
        """True when messages src -> dst are currently being dropped."""
        return (src_machine, dst_machine) in self._partitioned

    def lookahead(self) -> float:
        """Guaranteed minimum cross-machine delay (conservative lookahead).

        The sharded simulation core may let two shards simulate
        independently as long as neither runs past the other's clock
        plus this bound: no cross-machine message can ever arrive
        sooner. It is ``propagation.minimum()`` — serialisation time
        only adds delay, degrade factors are >= 1, and partitions drop
        messages entirely, so none of the mutable fault state can
        shrink a delay below the propagation infimum. A zero return
        (e.g. the default exponential propagation, whose support
        touches 0) means conservative sharding cannot make progress;
        callers must then fall back to a single shard.
        """
        return self.propagation.minimum()

    def delay_sampler(
        self,
        rng: np.random.Generator,
        block: int = DEFAULT_BLOCK,
        loopback_rng: Optional[np.random.Generator] = None,
    ) -> "BufferedDelaySampler":
        """The fabric's wire-delay model: propagation draws from *rng*,
        loopback draws from *loopback_rng*.

        Every message hop pays a jitter draw; the returned sampler
        serves those draws from numpy blocks. Each generator must be
        dedicated to its buffer (the buffering determinism contract),
        so a stochastic loopback needs *loopback_rng*; a
        :class:`~repro.distributions.Deterministic` loopback draws
        nothing and may go without. Link degradation and partitions
        apply at serve time, so fault injection is never a buffer-full
        late.
        """
        return BufferedDelaySampler(self, rng, block, loopback_rng)

    def __repr__(self) -> str:
        return (
            f"NetworkFabric(prop~{self.propagation.mean()*1e6:.1f}us, "
            f"lo~{self.loopback.mean()*1e6:.1f}us, "
            f"{self.bandwidth*8/1e9:.1f}Gbps)"
        )


class BufferedDelaySampler:
    """One consumer's view of a fabric's one-way delay model.

    A hop between distinct machines costs a propagation draw plus its
    serialisation time (bytes / bandwidth); a same-machine hop costs a
    loopback draw. Both jitter distributions draw through
    :class:`~repro.distributions.BufferedSampler` blocks, each on its
    own generator, so how hops of the two kinds interleave cannot
    change either sequence, whatever the block size. A degraded link
    multiplies the result by its factor; the fabric's mutable fault
    state is read per call, never cached.
    """

    __slots__ = ("fabric", "_propagation", "_loopback")

    def __init__(
        self,
        fabric: NetworkFabric,
        rng: np.random.Generator,
        block: int = DEFAULT_BLOCK,
        loopback_rng: Optional[np.random.Generator] = None,
    ) -> None:
        if loopback_rng is None:
            if not isinstance(fabric.loopback, Deterministic):
                raise ResourceError(
                    f"loopback {fabric.loopback!r} draws, so it needs its "
                    f"own generator (pass loopback_rng); sharing the "
                    f"propagation's would make delays depend on the "
                    f"block size"
                )
            loopback_rng = rng  # a Deterministic loopback draws nothing
        self.fabric = fabric
        self._propagation = BufferedSampler(fabric.propagation, rng, block)
        self._loopback = BufferedSampler(fabric.loopback, loopback_rng, block)

    def delay(
        self,
        src_machine: str,
        dst_machine: str,
        message_bytes: float,
    ) -> float:
        """One-way latency for a *message_bytes* message src -> dst."""
        if message_bytes < 0:
            raise ResourceError(f"negative message size: {message_bytes!r}")
        fabric = self.fabric
        if src_machine == dst_machine:
            base = self._loopback.sample()
        else:
            base = (self._propagation.sample()
                    + message_bytes / fabric.bandwidth)
        factor = fabric._link_factors.get((src_machine, dst_machine))
        return base if factor is None else base * factor
