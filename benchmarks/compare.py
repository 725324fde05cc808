"""The perf gate: this tree against a parent commit, run in pairs.

Run from the repository root::

    python -m benchmarks.compare BASE

BASE is any commit git can resolve, such as ``HEAD~1`` or a pull
request's base SHA. It is checked out into a temporary ``git worktree``
whose ``benchmarks/perf`` is then replaced by this tree's copy, so both
sides run the same harness, workloads and golden digests and only
``src/`` differs. The change is this tree as it stands, uncommitted
edits included.

``BENCHMARK.json``'s command runs with ``--trace 0 --seconds
<run_seconds>`` on each side in ``PAIRS`` pairs, alternating which side
goes first so that a slow stretch of a shared host hits both. Both
sides' sources are byte-compiled before the first pair, so neither
side's ``setup_s`` includes compiling modules the other reads from a
warm cache. One row
is printed per workload and end-to-end metric: the parent's median, the
change's median, their ratio, the metric's bound from ``BENCHMARK.json``
and a verdict. The last line of standard output is one JSON object.

The exit code is 0 when every change median is within its bound and no
change run failed, 1 otherwise, and 2 when the benchmark could not run.
Failed runs on the parent side are reported but do not fail the gate: a
change that re-baselines ``golden.json`` makes the parent's digests
mismatch.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
SPEC = ROOT / "BENCHMARK.json"

#: Runs per side. One run of the five workloads takes about two minutes
#: on a 2-core host, so the gate takes about twelve.
PAIRS = 3


class GateError(RuntimeError):
    """The benchmark could not run (exit code 2)."""


def last_json(stdout: str) -> Dict[str, Any]:
    """The JSON object on the last line of a benchmark run's output."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise GateError("the benchmark printed no JSON line") from None


def compile_sources(tree: Path, spec: Dict[str, Any]) -> None:
    """Byte-compile *tree*'s ``src/`` and ``benchmarks/perf`` with the
    benchmark's interpreter. ``compileall`` writes the caches even
    under ``PYTHONDONTWRITEBYTECODE``, which would otherwise leave a
    fresh checkout compiling every module in every benchmark child."""
    command = [spec["command"][0], "-m", "compileall", "-q",
               str(tree / "src"), str(tree / "benchmarks" / "perf")]
    if subprocess.run(command, stdout=subprocess.DEVNULL).returncode:
        raise GateError(f"cannot byte-compile the sources in {tree}")


def run_side(tree: Path, spec: Dict[str, Any]) -> Dict[str, Any]:
    """One benchmark run in *tree*, against that tree's ``src/``."""
    command = list(spec["command"]) + [
        "--trace", "0", "--seconds", str(spec["run_seconds"]),
    ]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        command, cwd=tree, env=env, stdout=subprocess.PIPE, text=True,
    )
    # The harness exits 1 when a run failed and 2 when it could not run.
    if proc.returncode not in (0, 1):
        raise GateError(f"the benchmark in {tree} exited with {proc.returncode}")
    return last_json(proc.stdout)


def _median(runs: List[Dict[str, Any]], key: str) -> Optional[float]:
    values = [run["metrics"][key]["value"] for run in runs
              if key in run["metrics"]]
    return statistics.median(values) if values else None


def gate(
    spec: Dict[str, Any],
    parent_runs: List[Dict[str, Any]],
    change_runs: List[Dict[str, Any]],
) -> Dict[str, Any]:
    """The verdict on the change, from each side's benchmark JSON lines."""
    rows = []
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            key = f"{workload['name']}/{metric['name']}"
            parent = _median(parent_runs, key)
            change = _median(change_runs, key)
            ratio = None
            if change is None:
                verdict = "missing"
            elif not parent:
                verdict = "no parent"
            else:
                ratio = change / parent
                worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
                verdict = "WORSE" if worse > metric["bound"] else "ok"
            rows.append({
                "metric": key, "unit": metric["unit"], "parent": parent,
                "change": change, "ratio": ratio, "bound": metric["bound"],
                "verdict": verdict,
            })
    change_failed = sum(run["failed"] for run in change_runs)
    return {
        "passed": change_failed == 0 and all(
            row["verdict"] in ("ok", "no parent") for row in rows
        ),
        "pairs": len(change_runs),
        "parent_failed": sum(run["failed"] for run in parent_runs),
        "change_failed": change_failed,
        "rows": rows,
    }


def report(result: Dict[str, Any]) -> None:
    """Print the verdict table for a reader."""
    def shown(value):
        return "-" if value is None else f"{value:.6g}"

    print(f"{'metric':34s} {'parent':>12s} {'change':>12s} {'ratio':>7s} "
          f"{'bound':>6s}  verdict")
    for row in result["rows"]:
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        print(f"{row['metric']:34s} {shown(row['parent']):>12s} "
              f"{shown(row['change']):>12s} {ratio:>7s} "
              f"{row['bound']:>6.0%}  {row['verdict']}")
    print(f"failed runs: change {result['change_failed']}, "
          f"parent {result['parent_failed']} (the parent's do not count)")


def measure(base: str, spec: Dict[str, Any]) -> Dict[str, Any]:
    """Check *base* out beside this tree and run both in pairs."""
    resolved = subprocess.run(
        ["git", "rev-parse", "--verify", f"{base}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if resolved.returncode:
        raise GateError(f"cannot resolve {base!r}: {resolved.stderr.strip()}")
    sha = resolved.stdout.strip()
    scratch = Path(tempfile.mkdtemp(prefix="perf-gate-"))
    parent_tree = scratch / "parent"
    try:
        added = subprocess.run(
            ["git", "worktree", "add", "--detach", str(parent_tree), sha],
            cwd=ROOT, capture_output=True, text=True,
        )
        if added.returncode:
            raise GateError(f"cannot check out {sha}: {added.stderr.strip()}")
        shutil.rmtree(parent_tree / "benchmarks" / "perf", ignore_errors=True)
        shutil.copytree(
            ROOT / "benchmarks" / "perf", parent_tree / "benchmarks" / "perf",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        print(f"perf gate: parent {sha[:12]} against {ROOT}, {PAIRS} pairs",
              flush=True)
        sides = {"parent": parent_tree, "change": ROOT}
        for tree in sides.values():
            compile_sources(tree, spec)
        runs: Dict[str, List[Dict[str, Any]]] = {"parent": [], "change": []}
        for pair in range(PAIRS):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                start = time.monotonic()
                run = run_side(sides[side], spec)
                runs[side].append(run)
                print(f"pair {pair + 1}/{PAIRS} {side}: "
                      f"{time.monotonic() - start:.0f} s, {run['failed']} of "
                      f"{run['attempted']} runs failed", flush=True)
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(parent_tree)],
            cwd=ROOT, capture_output=True,
        )
        shutil.rmtree(scratch, ignore_errors=True)
    return dict(gate(spec, runs["parent"], runs["change"]), base=sha)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if len(args) != 1:
        print("usage: python -m benchmarks.compare BASE", file=sys.stderr)
        return 2
    try:
        result = measure(args[0], json.loads(SPEC.read_text()))
    except GateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(result)
    print(json.dumps(result))
    return 0 if result["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
