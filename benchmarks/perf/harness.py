"""The benchmark command: host cost per simulated request.

Run from the repository root::

    python -m benchmarks.perf --seed 1
    python -m benchmarks.perf --workload two_tier --seed 3 --seconds 10 --trace 0

Every workload runs in fresh child processes, one at a time: set-up
probes and an untraced child for the end-to-end metrics, and a separate
traced child for the per-layer metrics. Every metric is printed by name
and unit, every run's output digest is checked, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports only the end-to-end
metrics and ``--trace 1`` only the per-layer ones; without ``--trace``
both are reported. The exit code is 0 when every run passed, 1 when a
run failed, and 2 when the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .kernel import calibrated
from .tracer import LAYERS
from .workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).with_name("golden.json")

#: Wall-clock budget per workload, below the 180 s a caller may allow.
WORKLOAD_BUDGET_S = 175.0
#: Set-up probe processes per workload, besides the untraced child.
PROBES = 4

#: (name, unit, better) of the end-to-end metrics (untraced runs).
END_TO_END = (
    ("host_us_per_req", "us", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Layers with self-time metrics. The shard layer is described by its
#: sync counters instead.
SPAN_LAYERS = tuple(layer for layer in LAYERS if layer != "shard")

#: (name, unit, better) of the per-layer metrics (traced run).
PER_LAYER = tuple(
    entry
    for layer in SPAN_LAYERS
    for entry in (
        (f"{layer}.self_s", "s", "lower"),
        (f"{layer}.share", "ratio", "lower"),
        (f"{layer}.calls", "count", "lower"),
    )
) + (
    ("engine.events", "count", "lower"),
    ("engine.events_per_s", "1/s", "higher"),
    ("engine.pushes", "count", "lower"),
    ("engine.cancels", "count", "lower"),
    ("engine.useful_ratio", "ratio", "higher"),
    ("engine.self_ns_per_event", "ns", "lower"),
    ("workload.requests_sent", "count", "higher"),
    ("topology.attempts_per_req", "ratio", "lower"),
    ("topology.ok_per_attempt", "ratio", "higher"),
    ("service.jobs", "count", "lower"),
    ("service.batches", "count", "lower"),
    ("service.jobs_per_batch", "ratio", "higher"),
    ("hardware.core_acquires", "count", "lower"),
    ("hardware.core_acquire_hit_ratio", "ratio", "higher"),
    ("distributions.draws", "count", "lower"),
    ("resilience.timeouts", "count", "lower"),
    ("resilience.retries", "count", "lower"),
    ("shard.rounds", "count", "lower"),
    ("shard.messages", "count", "lower"),
    ("shard.rounds_per_req", "ratio", "lower"),
    ("shard.messages_per_req", "ratio", "lower"),
    ("shard.stalls", "count", "lower"),
    ("shard.critical_shard_share", "ratio", "lower"),
    ("trace_overhead", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failed simulation)."""


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def spawn(job: Dict[str, Any], deadline: float) -> Dict[str, Any]:
    """Run one child process to completion and return its JSON result.

    The child leads its own process group, so any process it starts is
    killed with it if it overruns *deadline*.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    job = dict(job, spawned_at=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.perf.child", json.dumps(job)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise HarnessError(
            f"{job['mode']} child for {job['workload']} overran its budget"
        ) from None
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(
            f"{job['mode']} child for {job['workload']} exited with "
            f"{proc.returncode}:\n{err}"
        )
    return json.loads(lines[-1])


def rep_walls(timed) -> Dict[int, float]:
    """Each input's median untraced rep wall, every rep calibrated by
    the mean of the kernels run right before and right after it."""
    walls: Dict[int, List[float]] = {}
    for run in timed["runs"]:
        if "wall" in run:
            walls.setdefault(run["input"], []).append(
                calibrated(run["wall"], statistics.fmean(run["kernels"]))
            )
    return {index: statistics.median(w) for index, w in walls.items()}


def end_to_end_metrics(timed, setups) -> Dict[str, float]:
    walls = rep_walls(timed)
    requests = sum(timed["requests"][index] for index in walls)
    return {
        "host_us_per_req": sum(walls.values()) / requests * 1e6,
        "setup_s": statistics.median(
            calibrated(setup["setup_s"], setup["kernel"]) for setup in setups
        ),
        "peak_rss_mb": timed["peak_rss_mb"],
    }


def per_layer_metrics(timed, traced) -> Dict[str, float]:
    """The traced rep is input 0; it is compared with that input's
    untraced reps."""
    untraced_wall = rep_walls(timed)[0]
    wall = traced["wall"]
    self_s, calls, c = traced["self_s"], traced["calls"], traced["counters"]
    metrics: Dict[str, float] = {}
    for layer in SPAN_LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.share"] = self_s[layer] / wall
        metrics[f"{layer}.calls"] = calls[layer]
    requests = timed["requests"][0]
    sync = timed.get("shard_sync") or {}
    rounds = sync.get("rounds", 0)
    stragglers = sync.get("straggler_rounds") or {}
    metrics.update({
        "engine.events": c["events"],
        "engine.events_per_s": c["events"] / untraced_wall,
        "engine.pushes": c["pushes"],
        "engine.cancels": c["cancels"],
        "engine.useful_ratio": _ratio(c["events"], c["pushes"]),
        "engine.self_ns_per_event": _ratio(self_s["engine"] * 1e9, c["events"]),
        "workload.requests_sent": c["requests_sent"],
        "topology.attempts_per_req": _ratio(c["attempts"], c["requests_sent"]),
        "topology.ok_per_attempt": _ratio(c["ok"], c["attempts"]),
        "service.jobs": c["jobs"],
        "service.batches": c["batches"],
        "service.jobs_per_batch": _ratio(c["jobs"], c["batches"]),
        "hardware.core_acquires": c["core_acquires"],
        "hardware.core_acquire_hit_ratio": _ratio(
            c["core_acquires"], c["core_acquire_attempts"]
        ),
        "distributions.draws": c["draws"],
        "resilience.timeouts": c["timeouts"],
        "resilience.retries": c["retries"],
        "shard.rounds": rounds,
        "shard.messages": sync.get("messages_exchanged", 0),
        "shard.rounds_per_req": rounds / requests,
        "shard.messages_per_req": sync.get("messages_exchanged", 0) / requests,
        "shard.stalls": sync.get("stalls", 0),
        "shard.critical_shard_share": _ratio(
            max(stragglers.values(), default=0), rounds
        ),
        "trace_overhead": calibrated(wall, traced["kernel"]) / untraced_wall,
    })
    return metrics


def run_workload(
    name: str,
    params: Dict[str, Any],
    seed: int,
    *,
    seconds: float,
    trace: Optional[int],
    golden: Dict[str, Dict[str, str]],
    deadline: float,
) -> Dict[str, Any]:
    """Measure one workload; ``trace`` None reports both metric sets."""
    job = {"workload": name, "params": params, "seed": seed}
    timed = spawn(dict(job, mode="timed", seconds=seconds), deadline)
    runs: List[Tuple[str, Dict[str, Any]]] = [
        ("timed", run) for run in timed["runs"]
    ]
    setups: List[Dict[str, float]] = []
    if trace != 1 and "setup" in timed:
        setups.append(timed["setup"])
        setups += [
            spawn(dict(job, mode="probe"), deadline) for _ in range(PROBES)
        ]
    traced = None
    if trace != 0:
        traced = spawn(dict(job, mode="traced"), deadline)
        runs.append(("traced", traced["run"]))

    # One golden digest per input of the seed, in input order.
    expected = golden.get(name, {}).get(str(seed))
    observed: Dict[int, str] = {}
    for _, run in runs:
        if run["digest"]:
            observed.setdefault(run["input"], run["digest"])
    failures = []
    for kind, run in runs:
        index = run["input"]
        reference = expected[index] if expected else observed.get(index)
        if run["error"]:
            failures.append(f"{kind} run of input {index} raised:\n{run['error']}")
        elif run["digest"] != reference:
            failures.append(
                f"{kind} run of input {index}: digest {run['digest']} != "
                f"{'golden' if expected else 'first run'} {reference}"
            )
    reps = [run for run in timed["runs"] if "wall" in run]
    measured = {run["input"] for run in reps}
    metrics: Dict[str, float] = {}
    if reps:
        if trace != 1:
            metrics.update(end_to_end_metrics(timed, setups))
        if traced is not None and "wall" in traced and 0 in measured:
            metrics.update(per_layer_metrics(timed, traced))
    elif not failures:
        failures.append("no timed rep completed")
    return {
        "runs": len(runs),
        "runs_failed": len(failures),
        "failures": failures,
        "digests": dict(sorted(observed.items())),
        "digest_status": (
            "failed" if failures else "golden" if expected else "unchecked"
        ),
        "latency_ms": next(
            (run["latency_ms"] for _, run in runs if run.get("latency_ms")), {}
        ),
        "walls": [run["wall"] for run in reps],
        "kernels": [run["kernels"] for run in reps],
        "setups": setups,
        "reconciled": (
            sum(traced["self_s"].values()) / traced["wall"]
            if traced and "wall" in traced else None
        ),
        "metrics": metrics,
    }


def report(name: str, result: Dict[str, Any]) -> None:
    """Print one workload's metrics, with their units, for a reader."""
    latency = result["latency_ms"]
    print(
        f"== {name}: {len(result['walls'])} timed reps, {result['runs']} runs, "
        f"{result['runs_failed']} failed; digests {result['digest_status']}"
    )
    for index, digest in result["digests"].items():
        print(f"   input {index} digest {digest}")
    if latency:
        print(f"   simulated latency (output, not a metric): "
              f"p50 {latency['p50']:.4f} ms  p99 {latency['p99']:.4f} ms")
    if result["walls"]:
        print("   timed rep walls (s), inputs in turn: "
              + " ".join(f"{wall:.4f}" for wall in result["walls"]))
        print("   kernels before,after each rep (s): " + " ".join(
            f"{before:.4f},{after:.4f}" for before, after in result["kernels"]
        ))
    if result["setups"]:
        print("   set-ups (s, kernel s): " + " ".join(
            f"{setup['setup_s']:.4f},{setup['kernel']:.4f}"
            for setup in result["setups"]
        ))
    if result["reconciled"] is not None:
        print(f"   traced self time / traced wall: {result['reconciled']:.6f}")
    for metric, value in result["metrics"].items():
        shown = f"{value:>11d}" if isinstance(value, int) else f"{value:>18.6f}"
        print(f"   {metric:34s} {shown} {UNITS[metric]}")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}", file=sys.stderr)


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf", description=__doc__.split("\n")[0],
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all five)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="least wall time of untraced reps per workload "
                             "(at least 3 reps are always run)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer only")
    return parser.parse_args(argv)


def main(
    argv: Optional[Sequence[str]] = None,
    *,
    workloads: Optional[Dict[str, Dict[str, Any]]] = None,
    golden: Optional[Dict[str, Dict[str, str]]] = None,
) -> int:
    """The command; tests pass small *workloads* and their own *golden*."""
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if workloads is None else workloads
    if golden is None:
        golden = json.loads(GOLDEN.read_text())
    names = [args.workload] if args.workload else list(workloads)
    start = time.monotonic()
    results = {}
    for i, name in enumerate(names):
        try:
            results[name] = run_workload(
                name, workloads[name], args.seed, seconds=args.seconds,
                trace=args.trace, golden=golden,
                deadline=start + WORKLOAD_BUDGET_S * (i + 1),
            )
        except HarnessError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report(name, results[name])
    metrics = {
        (metric if args.workload else f"{name}/{metric}"): {
            "value": value, "unit": UNITS[metric],
        }
        for name, result in results.items()
        for metric, value in result["metrics"].items()
    }
    failed = sum(r["runs_failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["runs"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1
