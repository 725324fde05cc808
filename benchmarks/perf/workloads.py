"""The five benchmark workloads and the digest of their outputs.

Each workload is a fixed amount of simulated work (an open-loop
Poisson client in *simulated* time) that the host runs as fast as it
can. :data:`WORKLOADS` holds each one's parameters; tests pass smaller
or perturbed copies. A run measures :data:`INPUTS` inputs, each made
from the base seed and its index. :func:`prepare` builds a fresh world
for one input and returns a :class:`Rep` whose :meth:`Rep.run` is the
timed region.

The digest covers simulated outputs only, never event counts or shard
rounds, so a performance change that keeps the digests cannot have
bought its speed with fidelity.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, Optional

#: One rep of each is ~30-37k simulated events, about 0.6 s on a 2.1 GHz
#: Xeon vCPU, so a run holds dozens of reps (see README, "Noise").
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "two_tier": dict(
        qps=52000.0, duration=0.05, nginx_processes=8, memcached_threads=4,
    ),
    "social_network": dict(qps=5000.0, duration=0.1, propagation=100e-6),
    "fanout500": dict(
        qps=30.0, max_requests=30, cluster_size=500, slow_fraction=0.01,
    ),
    "retry_storm": dict(
        qps=1200.0, duration=2.0, mean_service=1e-3, timeout=30e-3,
        max_attempts=4,
    ),
    "social_shards2": dict(
        qps=5000.0, duration=0.1, warmup=0.025, propagation=100e-6, shards=2,
    ),
}


#: Inputs per run. Reps cycle through them, so one input's luck (how
#: hard its retry storm gets, which fan-out leaves are slow) cannot
#: decide a run's number.
INPUTS = 4


def _derived_seed(params: Dict[str, Any], seed: int, index: int) -> int:
    from repro.runner import derive_seed

    return derive_seed(seed, float(params["qps"]), index)


def _client_limits(params: Dict[str, Any]) -> Dict[str, Any]:
    limits = {}
    if "duration" in params:
        limits["stop_at"] = params["duration"]
    if "max_requests" in params:
        limits["max_requests"] = params["max_requests"]
    return limits


class _DropAll:
    """A dispatcher stand-in that drops every request it is handed."""

    def submit(self, request, **kwargs) -> None:
        pass


def input_requests(params: Dict[str, Any], seed: int, index: int = 0) -> int:
    """The requests in input *index* generated from *seed*, which
    ``host_us_per_req`` divides by.

    The client's arrivals are replayed against a dispatcher that drops
    them. Client randomness comes from named streams, so this is the
    count the real client sends in every world built from the input,
    sharded or not, and it does not vary with the simulator's speed.
    """
    from repro.engine import Simulator
    from repro.workload import OpenLoopClient

    sim = Simulator(seed=_derived_seed(params, seed, index))
    client = OpenLoopClient(
        sim, _DropAll(), arrivals=params["qps"], **_client_limits(params)
    )
    client.start()
    sim.run()
    return client.requests_sent


class Rep:
    """One freshly built world with its client started."""

    def __init__(self, world, client, until: Optional[float]) -> None:
        self.world = world
        self.client = client
        self.until = until

    def run(self) -> None:
        self.world.sim.run(until=self.until)

    def audit(self) -> None:
        from repro.experiments.audit import audit_client

        audit_client(
            self.client, self.world.sim, dispatcher=self.world.dispatcher
        )

    def latency_ms(self) -> Dict[str, float]:
        recorder = self.client.latencies
        if not len(recorder):
            return {}
        return {"p50": recorder.p50() * 1e3, "p99": recorder.p99() * 1e3}

    def digest(self) -> str:
        import numpy as np

        times, latencies = self.client.latencies.samples()
        dispatcher = self.world.dispatcher
        h = hashlib.sha256()
        h.update(np.asarray(times, dtype=np.float64).tobytes())
        h.update(np.asarray(latencies, dtype=np.float64).tobytes())
        h.update(json.dumps([
            sorted(self.client.outcomes.items()),
            self.client.requests_sent,
            dispatcher.attempts_launched,
            dispatcher.retries_issued,
        ]).encode())
        return h.hexdigest()


class ShardedRep:
    """``social_network`` measured through the generic shard adapter
    with its shards run one after another in this process; the whole
    ``sharded_load_point`` call (per-shard build, rounds, finalize) is
    the timed region."""

    def __init__(self, params: Dict[str, Any], seed: int) -> None:
        from repro.apps import social_network
        from repro.distributions import Deterministic
        from repro.hardware import NetworkFabric
        from repro.shard.adapter import sharded_load_point

        self._measure = sharded_load_point
        self._build_world = social_network
        self.params = params
        self.seed = seed
        self.network = NetworkFabric(
            propagation=Deterministic(params["propagation"])
        )
        self.point = None

    def run(self) -> None:
        p = self.params
        self.point = self._measure(
            self._build_world, p["qps"], p["duration"], p["warmup"],
            self.seed, p["shards"], mode="inline", network=self.network,
        )

    def audit(self) -> None:
        """The vanilla conservation audit needs the client object, which
        the shard adapter keeps to itself; the digest still pins the
        outputs."""

    def latency_ms(self) -> Dict[str, float]:
        if not self.point.completed:
            return {}
        return {"p50": self.point.p50 * 1e3, "p99": self.point.p99 * 1e3}

    def digest(self) -> str:
        return hashlib.sha256(
            repr(dataclasses.astuple(self.point)).encode()
        ).hexdigest()


def prepare(name: str, params: Dict[str, Any], seed: int, index: int = 0):
    """Build input *index* of workload *name* from *params* and the
    base *seed*."""
    derived = _derived_seed(params, seed, index)
    if name == "social_shards2":
        return ShardedRep(params, derived)

    from repro.workload import OpenLoopClient

    client_kwargs = _client_limits(params)
    until = None
    if name == "two_tier":
        from repro.apps import two_tier

        world = two_tier(
            nginx_processes=params["nginx_processes"],
            memcached_threads=params["memcached_threads"], seed=derived,
        )
        until = params["duration"]
    elif name == "social_network":
        from repro.apps import social_network
        from repro.distributions import Deterministic
        from repro.hardware import NetworkFabric

        world = social_network(
            seed=derived,
            network=NetworkFabric(propagation=Deterministic(params["propagation"])),
        )
        until = params["duration"]
    elif name == "fanout500":
        from repro.experiments.tail_at_scale import build_fanout_cluster

        world = build_fanout_cluster(
            params["cluster_size"], params["slow_fraction"], seed=derived,
        )
    elif name == "retry_storm":
        from repro.experiments.resilience import build_single_tier
        from repro.resilience import ResiliencePolicy, RetryPolicy

        world = build_single_tier(params["mean_service"], seed=derived)
        # The "unbudgeted" policy of the retry-storm study, spelled out
        # so a change to that experiment cannot move the benchmark.
        client_kwargs["resilience"] = ResiliencePolicy(
            timeout=params["timeout"],
            retry=RetryPolicy(
                max_attempts=params["max_attempts"], backoff_base=1e-3,
                jitter=1e-4,
            ),
        )
    else:
        raise ValueError(f"unknown workload {name!r}")
    client = OpenLoopClient(
        world.sim, world.dispatcher, arrivals=params["qps"], **client_kwargs
    )
    client.start()
    return Rep(world, client, until)
