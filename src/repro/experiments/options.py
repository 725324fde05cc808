"""Execution options: how an experiment runs, not what it models.

:class:`RunOptions` is the one list of execution knobs — process
fan-out, durable run directories, the conservation audit, trace
export, live SLOs, timeline scraping, fault plans, and the sharded
core with its supervisor — together with the rules that tie them to
each other. Experiment runners declare which options they support
simply by accepting a keyword argument of the same name, and
:func:`runner_kwargs` is the registry's one capability check: it hands
a runner the options that were set, or refuses loudly when the runner
cannot honour one. Which worlds shard, and with which options, is the
shard adapter's rule (:func:`repro.shard.adapter.run_world_sharded`),
not a signature's. Adding a knob means adding a field here and a
keyword to the runners that honour it.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, fields
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from ..errors import ReproError
from ..faults import FaultPlan
from ..runner import RunStore, durable_map, parallel_map
from ..telemetry.slo import SLO, parse_slo
from ..telemetry.tracing import TraceConfig

#: How a sweep accepts SLOs: one spec string / SLO, or a sequence.
SLOSpec = Union[str, SLO, Sequence[Union[str, SLO]]]

PathLike = Union[str, Path]

#: Options that only qualify another one: they reach a runner together
#: with it and mean nothing without it (``--no-resume`` without
#: ``--run-dir`` is a no-op, not an error).
_QUALIFIES = {"resume": "run_dir", "trace_sample": "trace_dir"}

#: Options a sweep spends itself instead of handing to each point;
#: ``trace_sample`` reaches points folded into their ``trace`` setting.
_SWEEP_ONLY = ("jobs", "run_dir", "resume", "timeout", "trace_sample")

#: How a refusal names an option, when not by its field name.
_REFUSAL_NAMES = {
    "shards": "the sharded parallel core (--shards)",
    "shard_timeout": "the shard supervisor knobs",
    "shard_restarts": "the shard supervisor knobs",
}


def resolve_slos(slo: Optional[SLOSpec], window: float) -> List[SLO]:
    """Normalise an ``--slo`` style argument into :class:`SLO` objects
    (spec strings parse with the given evaluation *window*)."""
    if slo is None:
        return []
    if isinstance(slo, (str, SLO)):
        slo = [slo]
    return [
        parse_slo(entry, window=window) if isinstance(entry, str) else entry
        for entry in slo
    ]


def implied_trace(
    trace: Union[bool, TraceConfig], trace_dir: Optional[PathLike]
) -> Union[bool, TraceConfig]:
    """The tracing a point runs with: *trace* as given, or default
    tracing when only a *trace_dir* was given."""
    return trace or trace_dir is not None


@dataclass(frozen=True)
class RunOptions:
    """Every execution knob, with the defaults of a plain serial run.

    ``jobs`` fans points out over worker processes (``0`` = all
    cores); ``run_dir``/``resume`` journal finished points so a killed
    run resumes, and ``timeout`` fails points whose worker hangs.
    ``audit`` runs the request-conservation check, ``trace_dir``
    exports request traces sampled at ``trace_sample``, ``slo``
    attaches live objectives, ``scrape_interval`` samples sim-time
    timelines, and ``fault_plan`` arms injected faults. ``shards > 1``
    runs each point on the sharded parallel core, whose supervisor
    ``shard_timeout`` and ``shard_restarts`` tune.

    Construction enforces the rules between fields, so an instance is
    always a coherent request.
    """

    jobs: int = 1
    run_dir: Optional[PathLike] = None
    resume: bool = True
    timeout: Optional[float] = None
    audit: bool = False
    trace_dir: Optional[PathLike] = None
    trace_sample: float = 1.0
    slo: Optional[SLOSpec] = None
    scrape_interval: Optional[float] = None
    fault_plan: Optional[FaultPlan] = None
    shards: int = 1
    shard_timeout: Optional[float] = None
    shard_restarts: Optional[int] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ReproError(f"--shards must be >= 1, got {self.shards}")
        if self.shards > 1:
            return
        if self.shard_timeout is not None or self.shard_restarts is not None:
            raise ReproError(
                "--shard-timeout/--shard-restarts tune the shard "
                "supervisor; they need --shards N"
            )
        if self.fault_plan is not None and self.fault_plan.shard_faults():
            raise ReproError(
                "fault plan carries shard_kill/shard_hang faults, which "
                "target the sharded execution layer; run with --shards N"
            )

    @classmethod
    def pick(cls, values: Mapping[str, Any]) -> "RunOptions":
        """The options named in *values* — typically a public runner's
        ``locals()``, whose keyword arguments carry the option names."""
        return cls(**{
            f.name: values[f.name] for f in fields(cls) if f.name in values
        })

    def requested(self) -> Dict[str, Any]:
        """The options set away from their defaults, by field name:
        what a runner must support to honour this request."""
        requested = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value == f.default:
                continue
            anchor = _QUALIFIES.get(f.name)
            if anchor is not None and getattr(self, anchor) is None:
                continue
            requested[f.name] = value
        return requested

    def point_options(self) -> Dict[str, Any]:
        """The requested options every measured point of a sweep takes
        as keyword arguments."""
        return {
            name: value for name, value in self.requested().items()
            if name not in _SWEEP_ONLY
        }

    @property
    def trace(self) -> Union[bool, TraceConfig]:
        """The tracing this run asks for: exporting to ``trace_dir``
        implies tracing, sampled at ``trace_sample``."""
        if self.trace_dir is None:
            return False
        return TraceConfig(sample_rate=self.trace_sample)

    @property
    def shard_journal_dir(self) -> Optional[Path]:
        """Where sharded points mirror their replay journals: inside the
        run directory, so a post-mortem can verify recovery digests."""
        if self.run_dir is None or self.shards == 1:
            return None
        return Path(self.run_dir) / "shard_journals"

    def journal_config(
        self, trace: Union[bool, TraceConfig]
    ) -> Dict[str, Any]:
        """The options that change a point's result, as entries of a
        sweep's journal-key config.

        Each joins only when on, so the keys of journals written before
        the option existed never change, and a rerun with the option on
        never reuses points measured without it. Options that cannot
        change a result (``trace_dir``, ``jobs``, supervisor tuning)
        never join: moving the output directory or adding workers keeps
        a journal resumable.
        """
        config: Dict[str, Any] = {}
        if trace:
            config["trace"] = trace if trace is True else repr(trace)
        if self.slo:
            config["slo"] = [s.name for s in resolve_slos(self.slo, 1.0)]
        if self.scrape_interval is not None:
            config["scrape"] = self.scrape_interval
        if self.shards != 1:
            config["shards"] = self.shards
        return config

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        experiment: str,
        keys: Sequence[str],
        seeds: Sequence[int],
        config: Any,
        manifest_extra: Optional[Any] = None,
    ) -> List[Any]:
        """``[fn(item) for item in items]`` over ``jobs`` workers,
        journaled to ``run_dir`` under *keys* when one is set (see
        :func:`~repro.runner.durable_map`)."""
        if self.run_dir is None:
            return parallel_map(
                fn, items, jobs=self.jobs, timeout=self.timeout,
            )
        return durable_map(
            fn, items, store=RunStore(self.run_dir, experiment, config=config),
            keys=keys, seeds=seeds, resume=self.resume, jobs=self.jobs,
            timeout=self.timeout, manifest_extra=manifest_extra,
        )


def accepts(runner: Callable[..., Any], name: str) -> bool:
    """Whether *runner* takes a keyword argument called *name*."""
    return name in inspect.signature(runner).parameters


def runner_kwargs(
    runner: Callable[..., Any], requested: Mapping[str, Any], owner: str
) -> Dict[str, Any]:
    """The capability check: *requested* options as *runner*'s keyword
    arguments, or a :class:`~repro.errors.ReproError` naming every one
    the runner's signature lacks (*owner* names the runner in it).
    Asking for an unsupported option is never a silent no-op."""
    missing = dict.fromkeys(
        _REFUSAL_NAMES.get(name, name)
        for name in requested if not accepts(runner, name)
    )
    if missing:
        raise ReproError(f"{owner} does not support {', '.join(missing)}")
    return dict(requested)
