"""Experiment harness: load sweeps, validation experiment definitions,
the tail-at-scale and power-management studies, the BigHouse
comparison, and the figure/table registry.

Every load point and Fig 14 cell goes through one run door,
:func:`run_point`, the one place the shard count picks the executor —
:func:`run_world`, or :func:`repro.shard.run_world_sharded` under
shards — returning one :class:`WorldRun` record that one builder per
result type turns into the point. :func:`run_world` drives its world
through :func:`drive_world`, which ``repro run`` uses for its
spec-built world. Below the entry points that take execution options
as keywords, the options travel as one
:class:`~repro.experiments.options.RunOptions`."""

from .._lazy import attach

__all__ = [
    "NodeFailurePoint",
    "ReplicatedPoint",
    "RolloutPoint",
    "SweepPoint",
    "WorldRun",
    "audit",
    "audit_client",
    "audit_sharded_run",
    "build_cluster_world",
    "comparison",
    "drive_world",
    "find_shard_journal",
    "load_latency_sweep",
    "measure_at_load",
    "node_failure_experiment",
    "orchestration",
    "power_mgmt",
    "registry",
    "replicate_at_load",
    "resilience",
    "rollout_experiment",
    "run_point",
    "run_world",
    "saturation_load",
    "shard_journal_name",
    "tail_at_scale",
    "validation",
]

__getattr__, __dir__ = attach(
    __name__,
    {
        "audit": ["audit_client", "audit_sharded_run"],
        "loadsweep": [
            "SweepPoint", "WorldRun", "drive_world", "find_shard_journal",
            "load_latency_sweep", "measure_at_load", "run_point",
            "run_world", "saturation_load", "shard_journal_name",
        ],
        "orchestration": [
            "NodeFailurePoint", "RolloutPoint", "build_cluster_world",
            "node_failure_experiment", "rollout_experiment",
        ],
        "replication": ["ReplicatedPoint", "replicate_at_load"],
    },
    submodules=(
        "audit", "comparison", "orchestration", "power_mgmt", "registry",
        "resilience", "tail_at_scale", "validation",
    ),
)
