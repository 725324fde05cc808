"""Experiment runner: process-parallel fan-out with deterministic
ordering and seeding, plus the durable-run layer.

``parallel_map(fn, items, jobs)`` is the one entry point the
experiment layer uses; :func:`derive_seed` is the seed discipline that
makes ``jobs=1`` and ``jobs=N`` bit-identical. See
:mod:`repro.runner.parallel` for the contract — including the one
crash policy (a crashed worker's suspects re-run alone in quarantine,
so only the crasher fails) and the ``timeout`` and
``failures="collect"`` knobs that keep a sweep alive through crashed
or hung workers.

:class:`RunStore` (:mod:`repro.runner.runstore`) journals completed
sweep points to a run directory so interrupted sweeps resume instead
of restarting; :func:`durable_map` is the parallel_map wrapper that
reads and writes it.
"""

from .._lazy import attach

__all__ = [
    "ItemFailure",
    "RunStore",
    "append_jsonl",
    "parallel_map",
    "resolve_jobs",
    "derive_seed",
    "default_jobs_from_env",
    "durable_map",
    "point_key",
    "register_result_type",
]

__getattr__, __dir__ = attach(
    __name__,
    {
        "parallel": [
            "ItemFailure", "default_jobs_from_env", "parallel_map",
            "resolve_jobs",
        ],
        "runstore": [
            "RunStore", "append_jsonl", "durable_map", "point_key",
            "register_result_type",
        ],
        "seeding": ["derive_seed"],
    },
)
