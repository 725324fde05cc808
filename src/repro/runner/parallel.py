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

On top of the fan-out this runner is **self-healing**, under one fixed
crash policy: items run as individual ``submit()`` futures, so one
worker dying (OOM kill, segfault, ``os._exit``) never aborts the whole
sweep with a bare ``BrokenProcessPool``. The pool is rebuilt, and every
item that was running or staged at the moment of death is re-run alone
in a *quarantine* pool of a single worker. Only an item that crashes
its quarantine worker too fails (kind ``crash``); innocent bystanders
keep their results. An optional per-item wall-clock timeout kills hung
workers and fails the expired item (kind ``timeout``). An item that
raises is never re-run: it is seeded, so it would raise again — a
journaled sweep re-runs it by resuming its run directory.

The callable and items must be picklable (module-level functions,
:func:`functools.partial` of them, plain-data arguments). ``jobs=1``
(the default everywhere) never touches multiprocessing, and a pool
that cannot be created at all — sandboxes without /dev/shm or fork —
degrades to the same in-process path rather than failing the sweep.
Once a pool has run, no item ever runs in the parent: a failure to
start a later pool fails the items still owed (kind ``no_pool``), and
in fail-fast mode raises a :class:`~repro.errors.ReproError` that
blames no item.
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

#: Backoff between pool rebuilds: ``BACKOFF_BASE * 2**k`` capped at
#: ``BACKOFF_CAP`` seconds. Real seconds, not simulated ones — this
#: paces recovery from resource exhaustion (a pool rebuilt instantly
#: after an OOM kill usually dies instantly again).
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0

#: How often the future-wait loop wakes up to poll timeouts (seconds).
_POLL = 0.05


@dataclass
class ItemFailure:
    """One sweep item that raised, crashed its quarantine worker, or
    timed out.

    Returned in-place in the result list (``failures="collect"``) so a
    sweep with a few bad points still yields every good one; the
    journaled-run layer (:mod:`repro.runner.runstore`) records these and
    recomputes only the holes on resume.
    """

    index: int  #: position in the item list
    item: Any  #: the work item itself (repr'd in messages)
    error: str  #: repr of the final exception
    kind: str  #: "exception" | "crash" | "timeout" | "no_pool"
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
    suspect: bool = False  # (possibly) running when a pool broke


class _PoolStartError(Exception):
    """A process pool could not be created or handed its items."""


@dataclass
class _MapRun:
    """Shared state of one self-healing map invocation."""

    fn: Callable
    items: List[Any]
    timeout: Optional[float]
    fail_fast: bool
    on_result: Optional[Callable[[int, Any], None]]
    results: List[Any] = field(default_factory=list)
    failures: List[ItemFailure] = field(default_factory=list)
    pooled: bool = False  # some pool accepted an item

    def record(self, index: int, value: Any) -> None:
        self.results[index] = value
        if self.on_result is not None:
            self.on_result(index, value)

    def fail(self, state: _ItemState, exc: BaseException, kind: str) -> None:
        """Record *state*'s failure, or raise it now when failing fast:
        the item's own exception, or a
        :class:`~repro.errors.WorkerCrashError` for a crash/timeout."""
        if self.fail_fast and kind == "exception":
            raise exc
        failure = ItemFailure(
            index=state.index,
            item=self.items[state.index],
            error=repr(exc),
            kind=kind,
            attempts=state.attempts,
        )
        if self.fail_fast:
            raise WorkerCrashError(failure)
        self.failures.append(failure)
        self.results[state.index] = failure


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: Optional[int] = 1,
    *,
    timeout: Optional[float] = None,
    on_result: Optional[Callable[[int, R], None]] = None,
    failures: str = "raise",
) -> List[R]:
    """``[fn(item) for item in items]``, fanned out over *jobs* processes.

    Results keep item order. With ``jobs=1`` (or a single item) the map
    runs in-process — no pool, no pickling, no overhead.

    A worker crash always settles in quarantine: the items that may
    have been running re-run one at a time in a single-worker pool, and
    only one that crashes there too fails (kind ``crash``). An item
    that raises fails at once with its own exception.

    * ``timeout`` — per-item wall-clock budget in real seconds. A
      worker that exceeds it is killed and its item fails (kind
      ``timeout``). Only enforceable with ``jobs > 1`` (in-process there
      is no worker to kill); ignored otherwise.
    * ``on_result`` — ``on_result(index, result)`` called in the parent
      process as each item completes (journaling hook; completion
      order, not item order).
    * ``failures`` — ``"raise"`` re-raises the first failed item's
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
    items = list(items)
    jobs = resolve_jobs(jobs)
    run = _MapRun(
        fn=fn,
        items=items,
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
        except _PoolStartError as exc:
            # No pool could start at all (restricted sandbox, no
            # semaphores or fork): degrade to in-process rather than
            # fail the experiment. Results are identical by construction.
            warnings.warn(
                f"process pool unavailable ({exc.__cause__}); running "
                f"{len(items)} items in-process", RuntimeWarning,
                stacklevel=2,
            )
            _map_in_process(run)
    if run.failures:
        raise PartialSweepError(run.failures, run.results)
    return run.results


def _map_in_process(run: _MapRun) -> None:
    """The serial path: same collect semantics, no pool. Worker
    crashes cannot be healed here (the "worker" is this very process)
    and timeouts are unenforceable."""
    for index, item in enumerate(run.items):
        try:
            run.record(index, run.fn(item))
        except Exception as exc:
            run.fail(_ItemState(index, attempts=1), exc, "exception")


def _backoff(rebuild: int) -> float:
    """Capped exponential backoff before pool rebuild *rebuild*."""
    return min(BACKOFF_BASE * (2 ** max(0, rebuild - 1)), BACKOFF_CAP)


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

    Raises :class:`_PoolStartError` only when no pool ever accepted an
    item; after that, a pool that cannot start fails every item still
    owed (kind ``no_pool``; fail-fast mode raises a ``ReproError``
    naming no item) rather than letting the caller run a crasher
    in-process.
    """
    pending = [_ItemState(i) for i in range(len(run.items))]
    rebuilds = 0
    while pending:
        suspects = [s for s in pending if s.suspect]
        healthy = [s for s in pending if not s.suspect]
        try:
            if suspects:
                # Quarantine: one item, one worker, exact attribution.
                survivors = _drive_pool(run, suspects[:1], max_workers=1)
                pending = survivors + suspects[1:] + healthy
            else:
                pending = _drive_pool(run, healthy, max_workers=jobs)
        except _PoolStartError as exc:
            if not run.pooled:
                raise
            if run.fail_fast:
                raise ReproError(
                    f"no process pool could start after an earlier one "
                    f"ran ({exc.__cause__!r}); {len(pending)} item(s) "
                    f"still owed"
                ) from exc.__cause__
            for state in pending:
                run.fail(state, exc.__cause__, "no_pool")
            return
        if pending:
            rebuilds += 1
            time.sleep(_backoff(rebuilds))


def _drive_pool(
    run: _MapRun, states: List[_ItemState], max_workers: int
) -> List[_ItemState]:
    """Run *states* in one pool until it finishes, breaks, or an item
    times out. Returns the states still owed a result (requeued and/or
    suspects for quarantine)."""
    workers = min(max_workers, len(states))
    futures: Dict[Any, _ItemState] = {}
    unsent: List[_ItemState] = []
    pool = None
    try:
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
            for position, state in enumerate(states):
                try:
                    future = pool.submit(run.fn, run.items[state.index])
                except BrokenProcessPool:
                    # A worker died while the rest were being handed
                    # over: these never left the parent.
                    unsent = states[position:]
                    break
                state.attempts += 1
                futures[future] = state
                run.pooled = True
        except OSError as exc:
            raise _PoolStartError() from exc
        return _reap(run, futures, workers) + unsent
    finally:
        if pool is not None:
            _kill_pool(pool)


def _reap(
    run: _MapRun, futures: Dict[Any, _ItemState], workers: int
) -> List[_ItemState]:
    """Collect futures until the map is done, the pool breaks, or an
    item times out. *futures* is insertion-ordered (submission order),
    which mirrors the executor's FIFO dispatch — the basis for blaming
    the right items when the pool dies without notice."""
    while futures:
        done, _ = wait(futures, timeout=_POLL, return_when=FIRST_COMPLETED)
        now = time.monotonic()
        broken = False
        for future in done:
            exc = future.exception()
            if isinstance(exc, BrokenProcessPool):
                # Leave it in *futures*, in submission order, for
                # classification — every sibling future carries the
                # same exception once the pool dies.
                broken = True
            elif exc is None:
                run.record(futures.pop(future).index, future.result())
            else:
                run.fail(futures.pop(future), exc, "exception")
        if broken:
            return _after_break(run, futures, workers)
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

    Possible culprits go to quarantine (a one-worker pool where a
    second death is attributed beyond doubt); a suspect that was
    already alone in quarantine is the culprit and fails.
    Provably-queued items get their attempt refunded and rejoin the
    next main pool.
    """
    dispatched = _dispatched(futures, workers)
    exc = BrokenProcessPool("a process pool worker died unexpectedly")
    survivors = []
    for state in futures.values():
        state.running_since = None
        if state.index not in dispatched:
            state.attempts -= 1  # never dispatched; refund
            survivors.append(state)
        elif state.suspect:
            run.fail(state, exc, "crash")
        else:
            state.suspect = True
            survivors.append(state)
    return survivors


def _after_timeout(
    run: _MapRun, futures: Dict[Any, _ItemState], workers: int
) -> List[_ItemState]:
    """Classify every unfinished item after a per-item timeout.

    The caller kills the whole pool (a hung worker cannot be cancelled
    individually), so expired items fail, other observed-running items
    go to quarantine with their attempt refunded (their work was
    collateral damage, not their fault), and queued items simply
    rejoin.
    """
    now = time.monotonic()
    exc = TimeoutError(
        f"item exceeded its {run.timeout}s wall-clock timeout"
    )
    survivors = []
    for state in futures.values():
        started = state.running_since
        state.running_since = None
        if started is not None and now - started > run.timeout:
            run.fail(state, exc, "timeout")
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
