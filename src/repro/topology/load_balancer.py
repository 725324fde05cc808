"""Load-balancing policies for picking among instances of a tier.

Paper SSIV-B constructs load balancing with an NGINX proxy that picks a
webserver "in a round-robin fashion"; the same policy object is used by
the dispatcher whenever a path node names a service with multiple
deployed instances.
"""

from __future__ import annotations

import abc
from operator import attrgetter
from typing import Sequence

import numpy as np

from ..errors import TopologyError
from ..service import Microservice


class NoHealthyInstance(TopologyError):
    """Every replica of the tier is down or draining.

    The dispatcher turns this into a fast request failure (outcome
    ``failed``) rather than letting it propagate.
    """


def healthy_subset(instances: Sequence[Microservice]) -> Sequence[Microservice]:
    """Filter to replicas currently accepting new work.

    Returns the original sequence when every instance is healthy, so
    the common fault-free path allocates nothing.
    """
    if all(inst.healthy for inst in instances):
        return instances
    return [inst for inst in instances if inst.healthy]


class LoadBalancer(abc.ABC):
    """Chooses which instance of a tier serves the next request.

    All policies are health-aware: down and draining replicas are
    skipped, and :class:`NoHealthyInstance` is raised when nothing is
    left to pick from.

    ``on_pick`` is an optional observability hook
    (:meth:`~repro.telemetry.metrics.MetricsRegistry.instrument_balancer`
    installs a per-instance pick counter); it is called with every
    chosen instance.
    """

    #: Optional callable(instance) fired on every pick (metrics hook).
    on_pick = None

    def _chose(self, instance: Microservice) -> Microservice:
        if self.on_pick is not None:
            self.on_pick(instance)
        return instance

    @abc.abstractmethod
    def pick(
        self,
        instances: Sequence[Microservice],
        rng: np.random.Generator,
    ) -> Microservice:
        """Select one healthy instance from a non-empty list."""

    def _eligible(
        self, instances: Sequence[Microservice]
    ) -> Sequence[Microservice]:
        if not instances:
            raise TopologyError("load balancer asked to pick from no instances")
        alive = healthy_subset(instances)
        if not alive:
            raise NoHealthyInstance(
                f"all {len(instances)} instances are down or draining"
            )
        return alive


class RoundRobin(LoadBalancer):
    """Strict rotation, the policy of the paper's LB validation.

    The rotation counter advances over the *healthy* subset, so a down
    replica's slots redistribute evenly instead of stalling every Nth
    request.
    """

    def __init__(self) -> None:
        self._next = 0

    def pick(
        self,
        instances: Sequence[Microservice],
        rng: np.random.Generator,
    ) -> Microservice:
        alive = self._eligible(instances)
        chosen = alive[self._next % len(alive)]
        self._next += 1
        return self._chose(chosen)


class RandomChoice(LoadBalancer):
    """Uniform random selection among healthy replicas."""

    def pick(
        self,
        instances: Sequence[Microservice],
        rng: np.random.Generator,
    ) -> Microservice:
        alive = self._eligible(instances)
        return self._chose(alive[int(rng.integers(len(alive)))])


class LeastOutstanding(LoadBalancer):
    """Pick the healthy instance with the fewest in-flight node visits
    (ties broken by deployment order for determinism).

    Uses the dispatcher-maintained ``pending_dispatch`` counter, which
    counts from instance *selection*, so a burst spreads over the
    replicas before any of it arrives.
    """

    def pick(
        self,
        instances: Sequence[Microservice],
        rng: np.random.Generator,
    ) -> Microservice:
        alive = self._eligible(instances)
        return self._chose(min(alive, key=attrgetter("pending_dispatch")))


POLICIES = {
    "round_robin": RoundRobin,
    "random": RandomChoice,
    "least_outstanding": LeastOutstanding,
}


def make_load_balancer(policy: str) -> LoadBalancer:
    """Factory used by graph.json's per-service ``lb_policy`` field."""
    try:
        return POLICIES[policy]()
    except KeyError:
        raise TopologyError(
            f"unknown lb policy {policy!r}; expected one of {sorted(POLICIES)}"
        ) from None
