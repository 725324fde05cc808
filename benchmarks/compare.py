"""The perf gate: this tree against a parent commit, run in pairs.

Run from the repository root::

    python -m benchmarks.compare BASE [--pairs N] [--workload NAME]

BASE is any commit git can resolve, such as ``HEAD~1`` or a pull
request's base SHA, or a directory holding the parent's tree, such as
an unpacked ``git archive``. A commit is checked out into a temporary
``git worktree``; a directory is copied into a temporary directory and
is itself left untouched. The parent tree's ``benchmarks/perf`` is then
replaced by this tree's copy, so both sides run the same harness,
workloads and golden digests and only ``src/`` differs. The change is
this tree as it stands, uncommitted edits included.

``BENCHMARK.json``'s command runs with ``--trace 0 --seconds
<run_seconds>`` on each side in ``PAIRS`` pairs (``--pairs`` sets
another count), alternating which side goes first so that a slow
stretch of a shared host hits both. ``--workload`` runs, and judges,
that one workload only. Both sides' sources are byte-compiled before
the first pair, so neither side's ``setup_s`` includes compiling
modules the other reads from a warm cache. One row is printed per
workload and end-to-end metric: the parent's median, the change's
median, their ratio, the metric's bound from ``BENCHMARK.json``, a
verdict, the pairs in which the change did better than the parent, and
the interquartile range of the parent's runs (the spread a median gap
has to exceed to say anything). The last line of standard output is
one JSON object.

The exit code is 0 when every change median is within its bound and no
change run failed, 1 otherwise, and 2 when the benchmark could not run.
Failed runs on the parent side are reported but do not fail the gate: a
change that re-baselines ``golden.json`` makes the parent's digests
mismatch.
"""

from __future__ import annotations

import argparse
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


def only_workload(spec: Dict[str, Any], name: str) -> Dict[str, Any]:
    """*spec* narrowed to its workload *name*."""
    chosen = [w for w in spec["workloads"] if w["name"] == name]
    if not chosen:
        known = ", ".join(w["name"] for w in spec["workloads"])
        raise GateError(f"unknown workload {name!r}; known: {known}")
    return dict(spec, workloads=chosen)


def run_side(tree: Path, spec: Dict[str, Any]) -> Dict[str, Any]:
    """One benchmark run in *tree*, against that tree's ``src/``; a
    *spec* with one workload runs that workload alone."""
    command = list(spec["command"]) + [
        "--trace", "0", "--seconds", str(spec["run_seconds"]),
    ]
    if len(spec["workloads"]) == 1:
        command += ["--workload", spec["workloads"][0]["name"]]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        command, cwd=tree, env=env, stdout=subprocess.PIPE, text=True,
    )
    # The harness exits 1 when a run failed and 2 when it could not run.
    if proc.returncode not in (0, 1):
        raise GateError(f"the benchmark in {tree} exited with {proc.returncode}")
    run = last_json(proc.stdout)
    if len(spec["workloads"]) == 1:
        # One workload's metrics are printed without its name.
        name = spec["workloads"][0]["name"]
        run["metrics"] = {
            f"{name}/{key}": value for key, value in run["metrics"].items()
        }
    return run


def _values(runs: List[Dict[str, Any]], key: str) -> List[Optional[float]]:
    return [run["metrics"][key]["value"] if key in run["metrics"] else None
            for run in runs]


def _median(values: List[Optional[float]]) -> Optional[float]:
    present = [v for v in values if v is not None]
    return statistics.median(present) if present else None


def _iqr(values: List[Optional[float]]) -> Optional[float]:
    present = [v for v in values if v is not None]
    if len(present) < 2:
        return None
    low, _, high = statistics.quantiles(present, n=4, method="inclusive")
    return high - low


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
            parent_values = _values(parent_runs, key)
            change_values = _values(change_runs, key)
            parent = _median(parent_values)
            change = _median(change_values)
            lower = metric["better"] == "lower"
            won = sum(
                1 for p, c in zip(parent_values, change_values)
                if p is not None and c is not None
                and (c < p if lower else c > p)
            )
            ratio = None
            if change is None:
                verdict = "missing"
            elif not parent:
                verdict = "no parent"
            else:
                ratio = change / parent
                worse = ratio - 1 if lower else 1 - ratio
                verdict = "WORSE" if worse > metric["bound"] else "ok"
            rows.append({
                "metric": key, "unit": metric["unit"], "parent": parent,
                "change": change, "ratio": ratio, "bound": metric["bound"],
                "verdict": verdict, "won": won,
                "pairs": min(len(parent_runs), len(change_runs)),
                "parent_iqr": _iqr(parent_values),
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
          f"{'bound':>6s}  {'verdict':7s} {'won':>5s} {'parent IQR':>12s}")
    for row in result["rows"]:
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        won = f"{row['won']}/{row['pairs']}"
        print(f"{row['metric']:34s} {shown(row['parent']):>12s} "
              f"{shown(row['change']):>12s} {ratio:>7s} "
              f"{row['bound']:>6.0%}  {row['verdict']:7s} {won:>5s} "
              f"{shown(row['parent_iqr']):>12s}")
    print(f"failed runs: change {result['change_failed']}, "
          f"parent {result['parent_failed']} (the parent's do not count)")


def copy_tree(base: Path, dest: Path) -> None:
    """Copy the parent tree in directory *base* to *dest*, leaving out
    version control and byte-code caches."""
    if not (base / "src").is_dir():
        raise GateError(f"{base} holds no src/ directory")
    shutil.copytree(
        base, dest, ignore=shutil.ignore_patterns(".git", "__pycache__"),
    )


def measure(
    base: str, spec: Dict[str, Any], pairs: int = PAIRS,
) -> Dict[str, Any]:
    """Put *base* beside this tree and run both in *pairs* pairs."""
    scratch = Path(tempfile.mkdtemp(prefix="perf-gate-"))
    parent_tree = scratch / "parent"
    worktree = False
    try:
        if Path(base).is_dir():
            label = str(Path(base).resolve())
            copy_tree(Path(base), parent_tree)
        else:
            resolved = subprocess.run(
                ["git", "rev-parse", "--verify", f"{base}^{{commit}}"],
                cwd=ROOT, capture_output=True, text=True,
            )
            if resolved.returncode:
                raise GateError(
                    f"cannot resolve {base!r}: {resolved.stderr.strip()}"
                )
            label = resolved.stdout.strip()
            added = subprocess.run(
                ["git", "worktree", "add", "--detach", str(parent_tree),
                 label],
                cwd=ROOT, capture_output=True, text=True,
            )
            if added.returncode:
                raise GateError(
                    f"cannot check out {label}: {added.stderr.strip()}"
                )
            worktree = True
        shutil.rmtree(parent_tree / "benchmarks" / "perf", ignore_errors=True)
        shutil.copytree(
            ROOT / "benchmarks" / "perf", parent_tree / "benchmarks" / "perf",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        print(f"perf gate: parent {label[:12] if worktree else label} "
              f"against {ROOT}, {pairs} pairs", flush=True)
        sides = {"parent": parent_tree, "change": ROOT}
        for tree in sides.values():
            compile_sources(tree, spec)
        runs: Dict[str, List[Dict[str, Any]]] = {"parent": [], "change": []}
        for pair in range(pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                start = time.monotonic()
                run = run_side(sides[side], spec)
                runs[side].append(run)
                print(f"pair {pair + 1}/{pairs} {side}: "
                      f"{time.monotonic() - start:.0f} s, {run['failed']} of "
                      f"{run['attempted']} runs failed", flush=True)
    finally:
        if worktree:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(parent_tree)],
                cwd=ROOT, capture_output=True,
            )
        shutil.rmtree(scratch, ignore_errors=True)
    return dict(gate(spec, runs["parent"], runs["change"]), base=label)


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.compare",
        description="Run the perf benchmark on a parent tree and on this "
                    "tree in alternating pairs and judge the change.",
    )
    parser.add_argument("base", metavar="BASE",
                        help="a commit, or a directory holding the "
                             "parent's tree")
    parser.add_argument("--pairs", type=int, default=PAIRS,
                        help=f"pairs of runs (default: {PAIRS})")
    parser.add_argument("--workload",
                        help="run and judge one workload (default: all)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        spec = json.loads(SPEC.read_text())
        if args.workload is not None:
            spec = only_workload(spec, args.workload)
        result = measure(args.base, spec, args.pairs)
    except GateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(result)
    print(json.dumps(result))
    return 0 if result["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
