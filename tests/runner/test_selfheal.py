"""Self-healing parallel_map: worker crashes settled in quarantine,
hangs, and the collect-failures mode that keeps a sweep alive through
all of them."""

import functools
import json
import os
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import pytest

from repro.errors import PartialSweepError, ReproError, WorkerCrashError
from repro.runner import ItemFailure, parallel_map

pytestmark = pytest.mark.filterwarnings(
    "ignore::RuntimeWarning"  # sandboxed pool fallback is fine here
)


def square(x):
    return x * x


def crash_on_negative(x):
    """Kills its worker process outright for negative items — the
    simulated OOM-kill/segfault that used to abort whole sweeps."""
    if x < 0:
        os._exit(13)
    return x * x


def boom_on_negative(x):
    if x < 0:
        raise ValueError(f"bad item {x}")
    return x * x


def hang_on_negative(x):
    if x < 0:
        time.sleep(120.0)
    return x * x


def nap_then_crash_on_negative(x):
    """Kills its worker for negative items; otherwise naps 0.2 s, so
    neighbours are still running when a crash lands."""
    if x < 0:
        os._exit(13)
    time.sleep(0.2)
    return x * x


def long_item_beside_late_crash(x):
    """A negative item kills its worker after 0.3 s; any other item
    runs for 2 s, so it is mid-run when that crash lands."""
    if x < 0:
        time.sleep(0.3)
        os._exit(13)
    time.sleep(2.0)
    return x * x


def count_runs_then_raise(runs_dir, error, x):
    """Raises *error* for negative items, leaving one marker file per
    run in *runs_dir*."""
    with open(os.path.join(runs_dir, f"run-{x}-{time.monotonic_ns()}"), "w"):
        pass
    if x < 0:
        raise error(f"bad item {x}")
    return x * x


class TestRetries:
    """Items are never retried: every point is seeded, so one that
    raised would raise again. A journaled sweep re-runs it by resuming
    its run directory."""

    def test_bad_failures_mode_rejected(self):
        with pytest.raises(ReproError, match="failures"):
            parallel_map(square, [1], failures="ignore")

    @pytest.mark.parametrize("error", [ValueError, FileNotFoundError])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_item_runs_once(self, tmp_path, jobs, error):
        # An OSError raised by an item is the item's failure, not a
        # sign that no pool can start: nothing re-runs in-process.
        fn = functools.partial(count_runs_then_raise, str(tmp_path), error)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(error, match="bad item -1"):
                parallel_map(fn, [1, -1, 2], jobs=jobs)
        assert len(list(tmp_path.glob("run--1-*"))) == 1


class TestCollectMode:
    def test_collect_keeps_good_results(self):
        with pytest.raises(PartialSweepError) as err:
            parallel_map(
                boom_on_negative, [1, -1, 2, -2, 3], jobs=1,
                failures="collect",
            )
        sweep = err.value
        assert len(sweep.failures) == 2
        results = sweep.results
        assert [results[0], results[2], results[4]] == [1, 4, 9]
        assert isinstance(results[1], ItemFailure)
        assert results[1].kind == "exception"
        assert results[1].attempts == 1
        assert "bad item -1" in results[1].error
        assert results[1].item == -1
        # ItemFailure is falsy so .filter(bool)-style cleanup works.
        assert [r for r in results if r] == [1, 4, 9]

    def test_collect_without_failures_returns_normally(self):
        assert parallel_map(
            square, [1, 2, 3], jobs=1, failures="collect"
        ) == [1, 4, 9]


class TestOnResult:
    def test_on_result_called_per_item(self):
        seen = []
        out = parallel_map(
            square, [3, 4], jobs=1, on_result=lambda i, r: seen.append((i, r))
        )
        assert out == [9, 16]
        assert sorted(seen) == [(0, 9), (1, 16)]

    def test_on_result_in_pool(self):
        seen = {}
        items = list(range(8))
        parallel_map(
            square, items, jobs=2, on_result=lambda i, r: seen.update({i: r})
        )
        assert seen == {i: i * i for i in items}

    def test_on_result_skipped_for_failures(self):
        seen = []
        with pytest.raises(PartialSweepError):
            parallel_map(
                boom_on_negative, [1, -1], jobs=1, failures="collect",
                on_result=lambda i, r: seen.append(i),
            )
        assert seen == [0]


class TestWorkerCrash:
    """The acceptance scenario: an os._exit item must not take the
    sweep (or its siblings' results) down with it."""

    def test_crashed_item_attributed_others_survive(self):
        items = [1, 2, -1, 3, 4, 5]
        with pytest.raises(PartialSweepError) as err:
            parallel_map(
                crash_on_negative, items, jobs=2, failures="collect",
            )
        sweep = err.value
        # Exactly the crasher failed; every innocent item has its result.
        assert [f.item for f in sweep.failures] == [-1]
        (failure,) = sweep.failures
        assert failure.kind == "crash"
        assert failure.attempts == 2  # main pool, then quarantine
        for i, item in enumerate(items):
            if item >= 0:
                assert sweep.results[i] == item * item
        assert isinstance(sweep.results[2], ItemFailure)

    def test_crash_fail_fast_raises_worker_crash_error(self):
        with pytest.raises(WorkerCrashError) as err:
            parallel_map(crash_on_negative, [1, -1, 2], jobs=2)
        assert err.value.failure.kind == "crash"

    def test_crash_mid_run_fails_only_the_crasher(self):
        # Neighbours are still running when the crash lands: each is a
        # suspect, cleared by its own quarantine run.
        items = [1, 2, -1, 3, 4, 5]
        with pytest.raises(PartialSweepError) as err:
            parallel_map(
                nap_then_crash_on_negative, items, jobs=2,
                failures="collect",
            )
        assert [(f.item, f.kind) for f in err.value.failures] == [
            (-1, "crash")]
        assert [r for r in err.value.results if r] == [
            x * x for x in items if x >= 0]

    def test_fail_fast_names_the_crasher_not_its_neighbour(self):
        # Item 7 is mid-run when -1 kills its worker; quarantine clears 7
        # and the error names -1.
        with pytest.raises(WorkerCrashError) as err:
            parallel_map(long_item_beside_late_crash, [7, -1], jobs=2)
        assert (err.value.failure.item, err.value.failure.kind) == (
            -1, "crash")

    def test_crash_while_items_are_still_being_submitted(self):
        # The first item kills its worker while thousands are still
        # being handed to the pool; the ones not yet handed over never
        # left the parent and rejoin a fresh pool.
        items = [-1] + list(range(2000))
        with pytest.raises(PartialSweepError) as err:
            parallel_map(crash_on_negative, items, jobs=2,
                         failures="collect")
        assert [(f.item, f.kind) for f in err.value.failures] == [
            (-1, "crash")]
        assert err.value.results[1:] == [x * x for x in items[1:]]

    def test_all_items_crash_still_terminates(self):
        with pytest.raises(PartialSweepError) as err:
            parallel_map(
                crash_on_negative, [-1, -2], jobs=2, failures="collect"
            )
        assert len(err.value.failures) == 2


class TestTimeout:
    def test_hung_item_killed_and_attributed(self):
        items = [1, -1, 2]
        start = time.monotonic()
        with pytest.raises(PartialSweepError) as err:
            parallel_map(
                hang_on_negative, items, jobs=2, timeout=1.0,
                failures="collect",
            )
        elapsed = time.monotonic() - start
        sweep = err.value
        assert [f.item for f in sweep.failures] == [-1]
        assert sweep.failures[0].kind == "timeout"
        assert sweep.results[0] == 1 and sweep.results[2] == 4
        # The 120s sleeper was killed, not waited out.
        assert elapsed < 60

    def test_timeout_ignored_in_process(self):
        # jobs=1 has no worker to kill; fast items simply run.
        assert parallel_map(square, [1, 2], jobs=1, timeout=0.001) == [1, 4]


def test_no_pool_at_all_degrades_in_process(monkeypatch):
    from repro.runner import parallel

    def no_pool(*args, **kwargs):
        raise OSError("no /dev/shm")

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
    with pytest.warns(RuntimeWarning, match="no /dev/shm"):
        assert parallel_map(square, [1, 2, 3], jobs=2) == [1, 4, 9]


#: A child process that runs ``crash_on_negative`` over ``[1, 2, 3, -1]``
#: on two workers with every process pool after the first failing to
#: start, as a fork failure after an OOM kill would. Run in a child so
#: a regression that runs the crasher in-process kills the child, not
#: the test session.
_REBUILD_FAILS = textwrap.dedent("""
    import json, sys
    from concurrent.futures import ProcessPoolExecutor
    from repro.errors import PartialSweepError, WorkerCrashError
    from repro.runner import ItemFailure, parallel
    from tests.runner.test_selfheal import crash_on_negative

    built = []

    def first_pool_only(*args, **kwargs):
        built.append(None)
        if len(built) > 1:
            raise OSError("fork failed")
        return ProcessPoolExecutor(*args, **kwargs)

    parallel.ProcessPoolExecutor = first_pool_only
    seen = []
    items = [1, 2, 3, -1]
    out = {"pools": 0, "seen": seen}
    try:
        results = parallel.parallel_map(
            crash_on_negative, items, jobs=2, failures=sys.argv[1],
            on_result=lambda i, r: seen.append(i))
    except PartialSweepError as exc:
        results = exc.results
    except WorkerCrashError as exc:
        results = None
        out["raised"] = [exc.failure.item, exc.failure.kind]
    if results is not None:
        out["results"] = [
            [r.kind, r.error] if isinstance(r, ItemFailure) else r
            for r in results]
    out["pools"] = len(built)
    print(json.dumps(out))
""")


@pytest.mark.parametrize("failures", ["collect", "raise"])
def test_failed_pool_rebuild_never_runs_an_item_in_process(failures):
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root)]))
    child = subprocess.run(
        [sys.executable, "-c", _REBUILD_FAILS, failures],
        capture_output=True, text=True, env=env, cwd=str(root),
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    out = json.loads(child.stdout.splitlines()[-1])
    assert out["pools"] == 2  # the crash forced a rebuild, which failed
    seen = out["seen"]
    assert len(seen) == len(set(seen))  # on_result once per finished item
    if failures == "raise":
        assert out["raised"][1] == "crash"
        return
    items = [1, 2, 3, -1]
    for i, result in enumerate(out["results"]):
        if i in seen:
            assert result == items[i] * items[i]
        else:
            assert result[0] == "crash" and "fork failed" in result[1]
    assert 3 not in seen
