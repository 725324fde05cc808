"""One measurement process: ``python -m benchmarks.perf.child JOB``.

*JOB* is a JSON object naming the ``mode``, the ``workload``, its
``params`` and ``seed``, and the parent's ``time.monotonic()`` stamp
taken just before the spawn (``spawned_at``; the monotonic clock is
shared by every process on the host). The child prints one JSON object
as its only line of standard output.

Modes:

* ``probe`` — import and build, then report the set-up time and one
  :func:`~benchmarks.perf.kernel.timed_kernel`;
* ``timed`` — untraced reps, each from a fresh world and each between
  two kernels, cycling through the workload's inputs, until
  :data:`MIN_REPS` are done and ``seconds`` of wall time have passed;
* ``traced`` — one kernel, then one rep of input 0 under
  :class:`~benchmarks.perf.tracer.LayerTracer` (never in the same
  process as a timed rep).

Every rep reports its ``input`` index, its ``digest`` and ``error``;
timed reps also report their ``wall`` and the seconds of the
``kernels`` run right before and right after them.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback
from typing import Any, Dict

from .workloads import INPUTS

#: Untraced reps per invocation, however short ``seconds`` is: one per
#: input.
MIN_REPS = INPUTS


def _setup_s(job: Dict[str, Any]) -> float:
    return time.monotonic() - job["spawned_at"]


def _finish(rep) -> Dict[str, Any]:
    """Audit and digest a finished rep, recording a failure instead of
    raising so one bad rep cannot hide the others."""
    try:
        rep.audit()
        return {"digest": rep.digest(), "error": None,
                "latency_ms": rep.latency_ms()}
    except Exception:
        return {"digest": None, "error": traceback.format_exc()}


def probe(job: Dict[str, Any]) -> Dict[str, Any]:
    from .kernel import timed_kernel
    from .workloads import prepare

    prepare(job["workload"], job["params"], job["seed"])
    setup_s = _setup_s(job)
    gc.collect()
    return {"setup_s": setup_s, "kernel": timed_kernel()}


def timed(job: Dict[str, Any]) -> Dict[str, Any]:
    from .kernel import timed_kernel
    from .workloads import input_requests, prepare

    out: Dict[str, Any] = {"runs": [], "shard_sync": None}
    began = rep = None
    while (len(out["runs"]) < MIN_REPS
           or time.perf_counter() - began < job["seconds"]):
        index = len(out["runs"]) % INPUTS
        # Free the previous world first, so the collector never walks it
        # during a timed rep and peak RSS holds one world, not two.
        rep = None
        try:
            rep = prepare(job["workload"], job["params"], job["seed"], index)
            setup_s = _setup_s(job)
            gc.collect()
            before = timed_kernel()
            if began is None:
                began = time.perf_counter()
                out["setup"] = {"setup_s": setup_s, "kernel": before}
            t0 = time.perf_counter()
            rep.run()
            wall = time.perf_counter() - t0
            after = timed_kernel()
        except Exception:
            out["runs"].append({"input": index, "digest": None,
                                "error": traceback.format_exc()})
            if began is None:
                break  # nothing was ever measured; do not spin
            continue
        out["runs"].append(dict(_finish(rep), input=index, wall=wall,
                                kernels=[before, after]))
        point = getattr(rep, "point", None)
        if point is not None and index == 0:
            out["shard_sync"] = point.shard_sync
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["requests"] = [
        input_requests(job["params"], job["seed"], index)
        for index in range(INPUTS)
    ]
    return out


def traced(job: Dict[str, Any]) -> Dict[str, Any]:
    from .kernel import timed_kernel
    from .tracer import LayerTracer
    from .workloads import prepare

    sharded = job["workload"] == "social_shards2"
    with LayerTracer() as tracer:
        try:
            rep = prepare(job["workload"], job["params"], job["seed"])
            gc.collect()
            kernel = timed_kernel()
            tracer.start("shard" if sharded else "engine")
            t0 = time.perf_counter()
            rep.run()
            wall = time.perf_counter() - t0
            tracer.stop()
        except Exception:
            return {"run": {"input": 0, "digest": None,
                            "error": traceback.format_exc()}}
    return {
        "run": dict(_finish(rep), input=0),
        "wall": wall,
        "kernel": kernel,
        "self_s": tracer.self_s,
        "calls": tracer.calls,
        "counters": tracer.counters(),
    }


MODES = {"probe": probe, "timed": timed, "traced": traced}


def main(argv=None) -> int:
    job = json.loads((sys.argv[1:] if argv is None else argv)[0])
    print(json.dumps(MODES[job["mode"]](job)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
