"""Deployment: which instances exist, where, and how they connect.

The programmatic equivalent of ``graph.json`` (paper SSIII-C): "the
server on which a microservice is deployed, the resources assigned to
each microservice, and the execution model each microservice is
simulated with. The microservice deployment also specifies the size of
the connection pool of each microservice."

Instances themselves (stages, paths, cores) are built by the
application model library (:mod:`repro.apps`) or the JSON config layer;
the deployment registers them under their tier name, owns the
load-balancing policy per tier, tracks per-machine network-processing
services, and hands out connection pools between communicating
instances.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import TopologyError
from ..service import ConnectionPool, Microservice
from .load_balancer import LoadBalancer, RoundRobin, make_load_balancer

DEFAULT_POOL_SIZE = 8


class Deployment:
    """Registry of deployed instances, balancers, and connection pools."""

    def __init__(self) -> None:
        self._instances: Dict[str, List[Microservice]] = {}
        self._balancers: Dict[str, LoadBalancer] = {}
        self._pool_sizes: Dict[str, int] = {}
        self._pool_policies: Dict[str, str] = {}
        self._netproc: Dict[str, Microservice] = {}
        self._pools: Dict[Tuple[str, str], ConnectionPool] = {}
        self._retired: List[Microservice] = []

    # Registration -------------------------------------------------------

    def add_instance(self, instance: Microservice) -> Microservice:
        """Register *instance* under its tier (service) name."""
        service = instance.tier
        replicas = self._instances.setdefault(service, [])
        if any(existing.name == instance.name for existing in replicas):
            raise TopologyError(
                f"duplicate instance name {instance.name!r} in tier {service!r}"
            )
        replicas.append(instance)
        return instance

    def remove_instance(self, name: str) -> Microservice:
        """Retire a replica: take it out of its tier so balancers stop
        seeing it, while keeping it findable by name for audits and
        late-firing faults.

        The control plane retires dead replicas it has replaced (so a
        later ``machine_recover`` cannot resurrect them into a tier
        that is already back at strength) and drained replicas it has
        scaled down.
        """
        for service, replicas in self._instances.items():
            for i, inst in enumerate(replicas):
                if inst.name == name:
                    replicas.pop(i)
                    self._retired.append(inst)
                    return inst
        raise TopologyError(
            f"no removable instance named {name!r}; deployed: "
            f"{sorted(i.name for i in self.all_instances)}"
        )

    @property
    def retired_instances(self) -> List[Microservice]:
        """Replicas removed from their tiers, in retirement order."""
        return list(self._retired)

    def set_balancer(self, service: str, policy: str) -> None:
        """Set the load-balancing policy for *service* (default RR)."""
        self._balancers[service] = make_load_balancer(policy)

    def set_pool(self, service: str, size: int, policy: str = "round_robin") -> None:
        """Configure the connection-pool size used by upstreams of
        *service* (each upstream instance gets its own pool)."""
        if size < 1:
            raise TopologyError(f"pool size must be >= 1, got {size}")
        self._pool_sizes[service] = size
        self._pool_policies[service] = policy

    def set_netproc(self, machine_name: str, instance: Microservice) -> None:
        """Attach the network-processing (soft_irq) service of a machine.

        All cross-machine messages to or from that machine pass through
        it — "all microservices deployed on the same server share the
        process handling interrupts" (paper SSIII-B).
        """
        if machine_name in self._netproc:
            raise TopologyError(f"machine {machine_name!r} already has a netproc")
        self._netproc[machine_name] = instance

    # Lookup -------------------------------------------------------------

    def instances(self, service: str) -> List[Microservice]:
        try:
            return self._instances[service]
        except KeyError:
            raise TopologyError(
                f"no instances deployed for service {service!r}; "
                f"deployed: {sorted(self._instances)}"
            ) from None

    @property
    def services(self) -> List[str]:
        return sorted(self._instances)

    @property
    def all_instances(self) -> List[Microservice]:
        return [inst for tier in self._instances.values() for inst in tier]

    def find_instance(self, name: str) -> Microservice:
        """Look up a deployed instance (any tier, or a netproc) by its
        unique name — fault injection targets instances this way."""
        for tier in self._instances.values():
            for inst in tier:
                if inst.name == name:
                    return inst
        for inst in self._netproc.values():
            if inst.name == name:
                return inst
        for inst in self._retired:
            if inst.name == name:
                return inst
        raise TopologyError(f"no instance named {name!r} deployed")

    @property
    def pools(self) -> List[ConnectionPool]:
        """Every connection pool created so far (telemetry/invariants)."""
        return list(self._pools.values())

    def balancer(self, service: str) -> LoadBalancer:
        if service not in self._balancers:
            self._balancers[service] = RoundRobin()
        return self._balancers[service]

    def netproc(self, machine_name: str) -> Optional[Microservice]:
        return self._netproc.get(machine_name)

    @property
    def netprocs(self) -> Dict[str, Microservice]:
        return dict(self._netproc)

    def pool_policy(self, service: str) -> str:
        """The checkout policy of the pools fronting *service*."""
        return self._pool_policies.get(service, "round_robin")

    def pool_between(self, upstream_key: str, downstream: Microservice) -> ConnectionPool:
        """The (lazily created) pool carrying upstream -> downstream
        traffic. *upstream_key* is an instance name or a client name."""
        key = (upstream_key, downstream.name)
        pool = self._pools.get(key)
        if pool is None:
            size = self._pool_sizes.get(downstream.tier, DEFAULT_POOL_SIZE)
            pool = ConnectionPool(
                f"{upstream_key}->{downstream.name}", size,
                self.pool_policy(downstream.tier),
            )
            self._pools[key] = pool
        return pool

    def __repr__(self) -> str:
        tiers = {name: len(insts) for name, insts in self._instances.items()}
        return f"<Deployment tiers={tiers} netprocs={sorted(self._netproc)}>"
