"""The one-simulator reference point the sharded core and the
instrumentation knobs are compared against."""

from repro.experiments.loadsweep import run_world, sweep_point
from repro.experiments.options import RunOptions


def vanilla_point(build, qps, duration, warmup, seed, options=RunOptions(),
                  **world_kwargs):
    """One load point of *build* on one simulator under *options*: the
    ``sweep_point`` of one ``run_world``. *world_kwargs* are the request
    ``mix`` and the builder's keywords."""
    run = run_world(build, qps, seed, options, duration=duration,
                    warmup=warmup, **world_kwargs)
    return sweep_point(run, qps, duration, warmup, seed, options)
