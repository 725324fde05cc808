"""Registry mapping paper experiment ids to their runners.

The per-experiment index of DESIGN.md SS3 in executable form: each
entry knows which figure/table it regenerates and which callable runs
it. ``benchmarks/`` drives these; users can too::

    from repro.experiments import registry
    result = registry.get("fig8").run()
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Dict, List, Optional

from . import (
    comparison,
    orchestration,
    power_mgmt,
    resilience,
    tail_at_scale,
    validation,
)
from .options import RunOptions, accepts, runner_kwargs


@dataclass(frozen=True)
class ExperimentSpec:
    """One reproducible evaluation artifact."""

    exp_id: str
    paper_ref: str
    title: str
    runner: Callable[..., Any]

    def supports(self, name: str) -> bool:
        """Whether the runner honours the :class:`RunOptions` field
        *name* — i.e. takes a keyword argument of that name."""
        return accepts(self.runner, name)

    def run(self, options: Optional[RunOptions] = None, **kwargs: Any) -> Any:
        """Run the experiment under *options*.

        Keyword arguments named like :class:`RunOptions` fields override
        *options*; every other one goes to the runner as-is. Each option
        set away from its default reaches the runner only if the runner
        supports it — asking an experiment to checkpoint, fan out,
        trace or shard when it cannot is an error, not a silent no-op.
        """
        overrides = {
            f.name: kwargs.pop(f.name)
            for f in fields(RunOptions) if f.name in kwargs
        }
        options = replace(options or RunOptions(), **overrides)
        return self.runner(**kwargs, **runner_kwargs(
            self.runner, options.requested(), f"experiment {self.exp_id!r}"
        ))


_SPECS: List[ExperimentSpec] = [
    ExperimentSpec(
        "fig5", "Figure 5",
        "2-tier NGINX-memcached validation across concurrency configs",
        validation.fig5_two_tier,
    ),
    ExperimentSpec(
        "fig6", "Figure 6",
        "3-tier NGINX-memcached-MongoDB validation",
        validation.fig6_three_tier,
    ),
    ExperimentSpec(
        "fig8", "Figure 8",
        "Load balancing validation (scale-out 4/8/16)",
        validation.fig8_load_balancing,
    ),
    ExperimentSpec(
        "fig10", "Figure 10",
        "Request fanout validation (fanout 4..16)",
        validation.fig10_fanout,
    ),
    ExperimentSpec(
        "fig12a", "Figure 12(a)",
        "Apache Thrift echo RPC validation",
        validation.fig12a_thrift,
    ),
    ExperimentSpec(
        "fig12b", "Figure 12(b)",
        "Social Network end-to-end validation",
        validation.fig12b_social_network,
    ),
    ExperimentSpec(
        "fig13_nginx", "Figure 13 (left)",
        "uqSim vs BigHouse: single-process NGINX",
        comparison.nginx_panel,
    ),
    ExperimentSpec(
        "fig13_memcached", "Figure 13 (right)",
        "uqSim vs BigHouse: 4-thread memcached",
        comparison.memcached_panel,
    ),
    ExperimentSpec(
        "fig14", "Figure 14",
        "Tail at scale: fanout with slow servers",
        tail_at_scale.tail_at_scale_sweep,
    ),
    ExperimentSpec(
        "retry_storm", "beyond the paper",
        "Retry-storm metastability: goodput under overload with "
        "no/unbudgeted/budgeted retries",
        resilience.retry_storm_sweep,
    ),
    ExperimentSpec(
        "hedging", "beyond the paper",
        "Hedged requests on the 100-replica straggler tier "
        "(p99 vs hedge delay)",
        resilience.hedging_sweep,
    ),
    ExperimentSpec(
        "node_failure", "beyond the paper",
        "Self-healing: machine kill, rescheduling onto survivors, "
        "goodput recovery",
        orchestration.node_failure_experiment,
    ),
    ExperimentSpec(
        "rollout", "beyond the paper",
        "SLO-gated canary deploys: regressed versions roll back, "
        "clean ones promote",
        orchestration.rollout_experiment,
    ),
    ExperimentSpec(
        "fig16", "Figure 16",
        "Power management timeline under diurnal load",
        power_mgmt.run_power_experiment,
    ),
    ExperimentSpec(
        "table3", "Table III",
        "Power management QoS violation rates vs decision interval",
        power_mgmt.violation_table,
    ),
]

_BY_ID: Dict[str, ExperimentSpec] = {spec.exp_id: spec for spec in _SPECS}


def get(exp_id: str) -> ExperimentSpec:
    """Look up an experiment by id (e.g. ``"fig8"``)."""
    try:
        return _BY_ID[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {sorted(_BY_ID)}"
        ) from None


def all_experiments() -> List[ExperimentSpec]:
    """Every registered experiment, in paper order."""
    return list(_SPECS)
