"""Partitioning a cluster topology into shards.

A shard is a set of machines whose models run inside one
:class:`~repro.engine.Simulator`. Everything that communicates with
zero minimum latency must share a shard: conservative synchronisation
(:mod:`repro.shard.sync`) only works when every cross-shard edge has a
strictly positive *lookahead* — the guaranteed minimum delay of the
:class:`~repro.hardware.NetworkFabric` between distinct machines.

When ``fabric.lookahead() <= 0`` (the default exponential propagation
has an infimum of 0), no positive window exists and :func:`plan_shards`
*loudly* degrades to a single shard instead of deadlocking. Results are
then exactly the single-shard results. Colocated services share a
machine, and machines are the unit of assignment, so loopback traffic
never crosses shards.

Assignment is deterministic: machines are distributed contiguously in
the caller-supplied order, so the same topology always yields the same
plan — a prerequisite for the reproducibility contract (shard count
must never change which RNG stream serves which draw; streams are
named per component via
:class:`~repro.engine.RandomStreams`, so placement only decides *where*
a stream is instantiated, never *what* it yields).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import ShardingError
from ..hardware import NetworkFabric


@dataclass
class ShardPlan:
    """The outcome of partitioning: who runs where, and how far apart.

    ``num_shards`` is the *effective* shard count — 1 when the plan
    fell back (see :attr:`fallback_reason`). ``lookahead`` is the
    conservative window bound shared by every cross-shard edge.
    """

    num_shards: int
    assignments: Dict[str, int] = field(default_factory=dict)
    lookahead: float = 0.0
    fallback_reason: Optional[str] = None

    @property
    def sharded(self) -> bool:
        return self.num_shards > 1

    def machines_of(self, shard: int) -> List[str]:
        """Machine names assigned to *shard*, in assignment order."""
        return [m for m, s in self.assignments.items() if s == shard]

    def validate_shard(self, shard) -> int:
        """Check *shard* names a shard of this plan; returns it.

        Used by the chaos layer to fail fast when a ``shard_kill``
        fault targets a shard that does not exist (or the plan fell
        back to one shard, where killing the only worker cannot be
        recovered into the same run)."""
        if shard is None or not 0 <= int(shard) < self.num_shards:
            detail = (
                f"; plan fell back to a single shard "
                f"({self.fallback_reason})"
                if self.fallback_reason
                else ""
            )
            raise ShardingError(
                f"fault targets shard {shard!r} but the plan has "
                f"shards 0..{self.num_shards - 1}{detail}"
            )
        return int(shard)


def fabric_lookahead(fabric: NetworkFabric) -> float:
    """The conservative cross-shard lookahead of *fabric*.

    Delegates to :meth:`NetworkFabric.lookahead` (the propagation
    infimum); a separate function so callers that only have a fabric
    handle read naturally at the planning layer.
    """
    return fabric.lookahead()


def plan_shards(
    machines: Sequence[str],
    num_shards: int,
    fabric: NetworkFabric,
) -> ShardPlan:
    """Assign *machines* to *num_shards* shards, contiguously and
    evenly in input order.

    Returns a 1-shard plan (with a ``RuntimeWarning`` and a
    ``fallback_reason``) when the fabric's lookahead is not strictly
    positive or there are fewer machines than shards.
    """
    if num_shards < 1:
        raise ShardingError(f"num_shards must be >= 1, got {num_shards!r}")
    machines = list(machines)
    seen = set()
    for name in machines:
        if name in seen:
            raise ShardingError(f"duplicate machine {name!r} in shard plan")
        seen.add(name)

    def single(reason: Optional[str]) -> ShardPlan:
        return ShardPlan(
            num_shards=1,
            assignments={name: 0 for name in machines},
            lookahead=0.0,
            fallback_reason=reason,
        )

    if num_shards == 1:
        return single(None)

    lookahead = fabric_lookahead(fabric)
    if not lookahead > 0.0 or math.isinf(lookahead):
        reason = (
            f"network lookahead is {lookahead!r}: conservative windows "
            f"cannot make progress (the propagation distribution's "
            f"support touches zero); falling back to shards=1. Use a "
            f"propagation distribution with a positive minimum "
            f"(e.g. Deterministic or Shifted) to enable sharding."
        )
        warnings.warn(reason, RuntimeWarning, stacklevel=2)
        return single(reason)

    n = len(machines)
    if n < num_shards:
        reason = (
            f"only {n} placeable unit(s) for {num_shards} "
            f"shards; falling back to shards=1"
        )
        warnings.warn(reason, RuntimeWarning, stacklevel=2)
        return single(reason)

    # Contiguous deterministic assignment: machine k of n goes to shard
    # floor(k * num_shards / n) — balanced within one machine, and
    # stable under the input order.
    return ShardPlan(
        num_shards=num_shards,
        assignments={
            name: (k * num_shards) // n for k, name in enumerate(machines)
        },
        lookahead=lookahead,
        fallback_reason=None,
    )
