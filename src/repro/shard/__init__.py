"""Sharded parallel simulation core (conservative time windows).

The single-simulator engine in :mod:`repro.engine` is strictly
sequential: one event heap, one clock. This package partitions a
cluster topology into *shards* — groups of machines, each with its own
:class:`~repro.engine.Simulator` running in its own worker process —
and synchronises them with the classic conservative windowing scheme:
the :class:`~repro.hardware.NetworkFabric`'s guaranteed minimum
cross-machine delay (its *lookahead*) bounds how far shards may drift
apart, and cross-shard dispatches travel as time-stamped mailbox
messages exchanged at window barriers.

Layering:

* :mod:`~repro.shard.message` — the mailbox currency and its
  canonical (machine-independent) delivery order;
* :mod:`~repro.shard.partition` — planning machines onto shards and
  the loud zero-lookahead fallback;
* :mod:`~repro.shard.sync` — :class:`ShardHost` (one shard's
  simulator + mailbox) and :class:`ConservativeCoordinator` (the
  round loop, with a per-pair lookahead closure so an idle shard
  never throttles the others);
* :mod:`~repro.shard.worker` — process-mode execution, inline mode,
  and the sandbox fallback;
* :mod:`~repro.shard.journal` + :mod:`~repro.shard.supervisor` — the
  fault-tolerance layer: a barrier-replay journal of every completed
  round and per-worker supervision (liveness deadlines, budgeted
  restart with verified replay) so a dead or hung worker costs a
  recovery, not the run;
* :mod:`~repro.shard.adapter` — the one sharded execution path: runs
  the real :class:`~repro.topology.Dispatcher`/``Microservice``
  wiring of *any* registered topology (the Fig 14 fan-out cluster
  included) behind ShardHost mailboxes (full-world replication,
  machine ownership), stopped by a horizon or a request count, with
  merged telemetry (traces/SLO/mix) shipped home at ``finalize()``
  into the same :class:`WorldRun` record the vanilla core
  (:func:`repro.experiments.loadsweep.run_world`) returns.

Determinism contract: all shards share one root seed and draw from
named :class:`~repro.engine.RandomStreams`, so the shard count decides
*where* a component's stream is instantiated, never *what* it yields —
``shards=1`` is bit-identical to the unsharded engine, and any two
``shards>=2`` runs are bit-identical to each other.
"""

from .adapter import (
    ShardedDispatcher,
    WorldRun,
    WorldShardHost,
    build_world_shard_host,
    run_world_sharded,
    sharded_load_point,
    validate_world_shardable,
)
from .journal import ReplayJournal, load_replay_journal, outbound_digest
from .message import ShardMessage, deterministic_order
from .partition import ShardPlan, fabric_lookahead, plan_shards
from .supervisor import ShardSupervisor
from .sync import ConservativeCoordinator, ShardHost
from .worker import (
    DEFAULT_WINDOW_TIMEOUT,
    ShardWorkerDied,
    ShardWorkerHung,
    ShardWorkerProxy,
    run_sharded,
    spawn_worker,
    start_shard_hosts,
)

__all__ = [
    "ConservativeCoordinator",
    "DEFAULT_WINDOW_TIMEOUT",
    "ReplayJournal",
    "ShardHost",
    "ShardMessage",
    "ShardPlan",
    "ShardSupervisor",
    "ShardWorkerDied",
    "ShardWorkerHung",
    "ShardWorkerProxy",
    "ShardedDispatcher",
    "WorldRun",
    "WorldShardHost",
    "build_world_shard_host",
    "deterministic_order",
    "fabric_lookahead",
    "load_replay_journal",
    "outbound_digest",
    "plan_shards",
    "run_sharded",
    "run_world_sharded",
    "sharded_load_point",
    "spawn_worker",
    "start_shard_hosts",
    "validate_world_shardable",
]
