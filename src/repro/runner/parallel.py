"""Process-parallel fan-out for embarrassingly parallel experiments.

Every sweep point, replication, and figure panel builds its own world
from its own seed — there is no shared state between them, so the only
thing serial execution buys is a warm prompt. :func:`parallel_map`
farms such items out to a :class:`~concurrent.futures.ProcessPoolExecutor`
while keeping the two properties the experiment layer relies on:

* **Deterministic ordering** — results come back in item order, never
  completion order, so a sweep's points line up with its loads no
  matter how the pool interleaved them.
* **Deterministic seeding** — parallelism must not touch randomness.
  Workers receive fully-specified work items whose seeds were derived
  *before* the fan-out (see :mod:`repro.runner.seeding`), so
  ``jobs=1`` and ``jobs=N`` produce identical results bit for bit.

On top of the PR-2 fan-out this runner is **self-healing**: items run
as individual ``submit()`` futures, so one worker dying (OOM kill,
segfault, ``os._exit``) no longer aborts the whole sweep with a bare
``BrokenProcessPool``. The pool is rebuilt, surviving items continue,
and the items that were in flight at the moment of death are re-run
one at a time in a *quarantine* pool of a single worker — if the pool
breaks again there, the guilty item is identified beyond doubt and
innocent bystanders keep their results. Failed items are retried up to
a budget with capped backoff; an optional per-item wall-clock timeout
kills hung workers the same way.

The callable and items must be picklable (module-level functions,
:func:`functools.partial` of them, plain-data arguments). ``jobs=1``
(the default everywhere) never touches multiprocessing, and a pool
that cannot be created at all — sandboxes without /dev/shm or fork —
degrades to the same in-process path rather than failing the sweep.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, TypeVar

from ..errors import PartialSweepError, ReproError, WorkerCrashError

T = TypeVar("T")
R = TypeVar("R")

#: Backoff between pool rebuilds / item retries: ``BACKOFF_BASE * 2**k``
#: capped at ``BACKOFF_CAP`` seconds. Real seconds, not simulated ones —
#: this paces recovery from resource exhaustion (an OOM-killed worker
#: retried instantly usually dies instantly again).
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0

#: How often the future-wait loop wakes up to poll timeouts (seconds).
_POLL = 0.05


@dataclass
class ItemFailure:
    """One sweep item that exhausted its retry budget.

    Returned in-place in the result list (``failures="collect"``) so a
    sweep with a few bad points still yields every good one; the
    journaled-run layer (:mod:`repro.runner.runstore`) records these and
    recomputes only the holes on resume.
    """

    index: int  #: position in the item list
    item: Any  #: the work item itself (repr'd in messages)
    error: str  #: repr of the final exception
    kind: str  #: "exception" | "crash" | "timeout"
    attempts: int  #: how many times the item was tried
    seed: Optional[int] = None  #: derived seed, when the caller knows it

    def __bool__(self) -> bool:  # a failure is falsy as a "result"
        return False


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` argument: ``None``/``0`` means all cores."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    jobs = int(jobs)
    if jobs < 0:
        raise ReproError(
            f"jobs must be >= 1, or 0/None for all cores; got {jobs!r}"
        )
    return jobs


@dataclass
class _ItemState:
    """Book-keeping for one in-flight item."""

    index: int
    attempts: int = 0
    running_since: Optional[float] = None
    suspect: bool = False  # was (possibly) running when the pool broke


@dataclass
class _MapRun:
    """Shared state of one self-healing map invocation."""

    fn: Callable
    items: List[Any]
    retries: int
    timeout: Optional[float]
    fail_fast: bool
    on_result: Optional[Callable[[int, Any], None]]
    results: List[Any] = field(default_factory=list)
    failures: List[ItemFailure] = field(default_factory=list)

    def record(self, index: int, value: Any) -> None:
        self.results[index] = value
        if self.on_result is not None:
            self.on_result(index, value)

    def fail(self, state: _ItemState, exc_repr: str, kind: str) -> None:
        failure = ItemFailure(
            index=state.index,
            item=self.items[state.index],
            error=exc_repr,
            kind=kind,
            attempts=state.attempts,
        )
        if self.fail_fast and kind != "exception":
            raise WorkerCrashError(failure)
        self.failures.append(failure)
        self.results[state.index] = failure


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: Optional[int] = 1,
    *,
    retries: int = 0,
    timeout: Optional[float] = None,
    on_result: Optional[Callable[[int, R], None]] = None,
    failures: str = "raise",
) -> List[R]:
    """``[fn(item) for item in items]``, fanned out over *jobs* processes.

    Results keep item order. With ``jobs=1`` (or a single item) the map
    runs in-process — no pool, no pickling, no overhead.

    Robustness knobs (all default to the historical fail-fast
    behaviour):

    * ``retries`` — per-item retry budget. An item that raises, crashes
      its worker, or times out is re-run up to this many extra times
      (with capped exponential backoff between pool rebuilds).
    * ``timeout`` — per-item wall-clock budget in real seconds. A
      worker that exceeds it is killed and its item counts one attempt.
      Only enforceable with ``jobs > 1`` (in-process there is no worker
      to kill); ignored otherwise.
    * ``on_result`` — ``on_result(index, result)`` called in the parent
      process as each item completes (journaling hook; completion
      order, not item order).
    * ``failures`` — ``"raise"`` re-raises the first exhausted item's
      exception immediately (worker crashes/timeouts raise
      :class:`~repro.errors.WorkerCrashError`); ``"collect"`` leaves an
      :class:`ItemFailure` in that item's result slot, lets every other
      item finish, and only then raises a single
      :class:`~repro.errors.PartialSweepError` carrying the full result
      list.
    """
    if failures not in ("raise", "collect"):
        raise ReproError(
            f'failures must be "raise" or "collect", got {failures!r}'
        )
    if retries < 0:
        raise ReproError(f"retries must be >= 0, got {retries!r}")
    items = list(items)
    jobs = resolve_jobs(jobs)
    run = _MapRun(
        fn=fn,
        items=items,
        retries=retries,
        timeout=timeout,
        fail_fast=failures == "raise",
        on_result=on_result,
        results=[None] * len(items),
    )
    if jobs == 1 or len(items) <= 1:
        _map_in_process(run)
    else:
        try:
            _map_in_pool(run, jobs)
        except (OSError, PermissionError) as exc:
            # Pool infrastructure unavailable (restricted sandbox, no
            # semaphores): degrade to in-process rather than fail the
            # experiment. Results are identical by construction.
            warnings.warn(
                f"process pool unavailable ({exc}); running {len(items)} "
                f"items in-process", RuntimeWarning, stacklevel=2,
            )
            _map_in_process(run)
    if run.failures:
        raise PartialSweepError(run.failures, run.results)
    return run.results


def _map_in_process(run: _MapRun) -> None:
    """The serial path: same retry/collect semantics, no pool.

    Worker crashes cannot be healed here (the "worker" is this very
    process) and timeouts are unenforceable, so only plain exceptions
    are retried.
    """
    for index, item in enumerate(run.items):
        state = _ItemState(index)
        while True:
            state.attempts += 1
            try:
                run.record(index, run.fn(item))
                break
            except Exception as exc:
                if state.attempts <= run.retries:
                    time.sleep(_backoff(state.attempts))
                    continue
                if run.fail_fast:
                    raise
                run.fail(state, repr(exc), "exception")
                break


def _backoff(attempt: int) -> float:
    """Capped exponential backoff before retry *attempt*."""
    return min(BACKOFF_BASE * (2 ** max(0, attempt - 1)), BACKOFF_CAP)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*, killing any still-running workers.

    ``shutdown(cancel_futures=True)`` only drops queued work — a hung
    worker would keep its process (and our wall clock) forever, so
    terminate the worker processes directly.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except (OSError, AttributeError):  # already dead / exotic impl
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _map_in_pool(run: _MapRun, jobs: int) -> None:
    """The self-healing pool path: individual futures, rebuilt pools.

    Items flow through a main pool of *jobs* workers; whenever the pool
    breaks (a worker died) or an item exceeds its wall-clock timeout,
    the items that may have been running become *suspects* and are
    replayed one at a time in a single-worker quarantine pool where
    blame is unambiguous. Unstarted items are resubmitted to a fresh
    main pool without losing an attempt.
    """
    pending = [_ItemState(i) for i in range(len(run.items))]
    rebuilds = 0
    while pending:
        suspects = [s for s in pending if s.suspect]
        healthy = [s for s in pending if not s.suspect]
        if suspects:
            # Quarantine: one item, one worker, exact attribution.
            survivors = _drive_pool(run, suspects[:1], max_workers=1)
            pending = survivors + suspects[1:] + healthy
        else:
            pending = _drive_pool(run, healthy, max_workers=jobs)
        if pending:
            rebuilds += 1
            time.sleep(_backoff(rebuilds))


def _drive_pool(
    run: _MapRun, states: List[_ItemState], max_workers: int
) -> List[_ItemState]:
    """Run *states* in one pool until it finishes, breaks, or an item
    times out. Returns the states still owed a result (requeued and/or
    suspects for quarantine)."""
    if not states:
        return []
    workers = min(max_workers, len(states))
    for state in states:
        state.running_since = None
        state.suspect = False
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures: Dict[Any, _ItemState] = {}
        for state in states:
            state.attempts += 1
            futures[pool.submit(run.fn, run.items[state.index])] = state
        return _reap(run, pool, futures, workers)
    finally:
        _kill_pool(pool)


def _reap(
    run: _MapRun,
    pool: ProcessPoolExecutor,
    futures: Dict[Any, _ItemState],
    workers: int,
) -> List[_ItemState]:
    """Collect futures until the map is done, the pool breaks, or an
    item times out. *futures* is insertion-ordered (submission order),
    which mirrors the executor's FIFO dispatch — the basis for blaming
    the right items when the pool dies without notice."""
    while futures:
        done, _ = wait(futures, timeout=_POLL, return_when=FIRST_COMPLETED)
        now = time.monotonic()
        broken = False
        resubmit: List[_ItemState] = []
        for future in done:
            exc = future.exception()
            if isinstance(exc, BrokenProcessPool):
                # Leave it in *futures*, in submission order, for
                # classification — every sibling future carries the
                # same exception once the pool dies.
                broken = True
            elif exc is None:
                run.record(futures.pop(future).index, future.result())
            elif _retryable(run, state := futures.pop(future),
                            exc, "exception"):
                resubmit.append(state)
        if broken:
            return _after_break(run, futures, workers)
        for state in resubmit:
            state.running_since = None
            state.attempts += 1
            try:
                futures[pool.submit(run.fn, run.items[state.index])] = state
            except BrokenProcessPool:
                # Pool died between the poll and the resubmit: the item
                # provably was not running, so it keeps its refund.
                state.attempts -= 1
                survivors = _after_break(run, futures, workers)
                return survivors + [state]
        # Timeout accounting: an item's clock starts the first time its
        # future reports running (dispatch to a worker), so time queued
        # behind other items doesn't count against its budget.
        expired = False
        for future, state in futures.items():
            if state.running_since is None and future.running():
                state.running_since = now
            if (run.timeout is not None
                    and state.running_since is not None
                    and now - state.running_since > run.timeout):
                expired = True
        if expired:
            return _after_timeout(run, futures, workers)
    return []


def _retryable(
    run: _MapRun, state: _ItemState, exc: BaseException, kind: str
) -> bool:
    """Retry *state* if budget remains, else record its failure.

    Returns True when the item should be run again."""
    if state.attempts <= run.retries:
        return True
    if kind == "exception" and run.fail_fast:
        raise exc
    run.fail(state, repr(exc), kind)
    return False


def _dispatched(
    futures: Dict[Any, _ItemState], workers: int
) -> "set[int]":
    """Indices of the unfinished items that may have reached a worker.

    A worker death gives no culprit, so blame conservatively: any item
    observed running, plus the earliest-submitted unfinished items that
    fit in the workers and the executor's one-deep staging queue (its
    dispatch is FIFO over submissions). Everyone else was provably
    still queued in the parent process.
    """
    suspects = {
        state.index
        for state in futures.values()
        if state.running_since is not None
    }
    window = workers + 1  # max_workers + the executor's staging slot
    for state in futures.values():  # insertion order == submission order
        if len(suspects) >= window:
            break
        suspects.add(state.index)
    return suspects


def _after_break(
    run: _MapRun, futures: Dict[Any, _ItemState], workers: int
) -> List[_ItemState]:
    """Classify every unfinished item after the pool died.

    Possible culprits keep the attempt they just spent and go to
    quarantine (a one-worker pool where a second death is attributed
    beyond doubt); provably-queued items get their attempt refunded and
    rejoin the next main pool.
    """
    suspects = _dispatched(futures, workers)
    exc = BrokenProcessPool("a process pool worker died unexpectedly")
    survivors = []
    for state in futures.values():
        state.running_since = None
        if state.index in suspects:
            if _retryable(run, state, exc, "crash"):
                state.suspect = True
                survivors.append(state)
        else:
            state.attempts -= 1  # never dispatched; refund
            state.suspect = False
            survivors.append(state)
    return survivors


def _after_timeout(
    run: _MapRun, futures: Dict[Any, _ItemState], workers: int
) -> List[_ItemState]:
    """Classify every unfinished item after a per-item timeout.

    The caller kills the whole pool (a hung worker cannot be cancelled
    individually), so expired items count their attempt, other
    observed-running items go to quarantine with their attempt
    refunded (their work was collateral damage, not their fault), and
    queued items simply rejoin.
    """
    now = time.monotonic()
    exc = TimeoutError(
        f"item exceeded its {run.timeout}s wall-clock timeout"
    )
    survivors = []
    for state in futures.values():
        started = state.running_since
        state.running_since = None
        expired = (started is not None
                   and now - started > (run.timeout or 0.0))
        if expired:
            if _retryable(run, state, exc, "timeout"):
                state.suspect = True  # rerun alone, on a fresh clock
                survivors.append(state)
        else:
            state.attempts -= 1  # killed pool took its attempt back
            state.suspect = started is not None
            survivors.append(state)
    return survivors


def default_jobs_from_env(var: str = "REPRO_JOBS") -> int:
    """Worker count from the environment (used by benchmarks/CLI glue)."""
    raw = os.environ.get(var, "1")
    try:
        return resolve_jobs(int(raw))
    except (ValueError, ReproError) as exc:
        warnings.warn(
            f"ignoring bad {var}={raw!r} ({exc}); using 1 worker",
            RuntimeWarning, stacklevel=2,
        )
        return 1
