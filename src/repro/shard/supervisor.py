"""Supervised shard workers: rebuild-and-replay fault tolerance.

A :class:`ShardSupervisor` wraps one
:class:`~repro.shard.worker.ShardWorkerProxy` and presents the same
host interface to the :class:`~repro.shard.sync.ConservativeCoordinator`
— but where the bare proxy turns a dead or hung worker into a fatal
:class:`~repro.errors.ShardingError`, the supervisor *recovers*:

1. reap the failed process (SIGKILL if it is merely hung);
2. rebuild the shard from its picklable ``(builder, kwargs)`` spec in
   a fresh process (capped exponential backoff between attempts);
3. replay the journaled inbound history
   (:class:`~repro.shard.journal.ReplayJournal`) round by round up to
   the last completed barrier — determinism from the named-stream
   seeding discipline guarantees the replayed shard reaches a
   bit-identical state;
4. verify, don't trust: each replayed round's outbound digest must
   match the journal. Divergence means the determinism contract is
   broken, and the supervisor aborts loudly rather than continue with
   silently different statistics;
5. re-stage the in-flight round, if the failure struck mid-window.

Recovery is budgeted: more than *max_restarts* failures of one shard
raises :class:`~repro.errors.ShardingError` carrying the full
per-failure attribution (what died, at which journaled round, why) —
a flapping worker is a real problem, not something to retry forever.
This mirrors the sweep-level self-healing contract of
:mod:`repro.runner.parallel` (quarantine + timeouts), one
layer down.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from ..errors import ShardingError
from .journal import ReplayJournal, outbound_digest
from .message import ShardMessage
from .worker import (
    DEFAULT_WINDOW_TIMEOUT,
    HostSpec,
    ShardWorkerDied,
    ShardWorkerHung,
    ShardWorkerProxy,
    spawn_worker,
)

_RECOVERABLE = (ShardWorkerDied, ShardWorkerHung)


class ShardSupervisor:
    """One shard's guardian: liveness, restart budget, verified replay.

    Implements the coordinator-side host interface (``horizon`` /
    ``begin_advance`` / ``finish_advance`` / ``finalize`` / ``close``)
    plus the chaos hooks, delegating to the current proxy and
    transparently replacing it on failure.
    """

    def __init__(
        self,
        shard_id: int,
        spec: HostSpec,
        proxy: ShardWorkerProxy,
        journal: ReplayJournal,
        *,
        max_restarts: int = 3,
        window_timeout: Optional[float] = DEFAULT_WINDOW_TIMEOUT,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        ctx=None,
    ) -> None:
        if max_restarts < 0:
            raise ShardingError(
                f"max_restarts must be >= 0, got {max_restarts!r}"
            )
        self.shard_id = shard_id
        self.spec = spec
        self.journal = journal
        self.max_restarts = max_restarts
        self.window_timeout = window_timeout
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        if ctx is None:
            import multiprocessing

            ctx = multiprocessing.get_context()
        self._ctx = ctx
        self._proxy = proxy
        #: Restarts consumed so far (the budget is ``max_restarts``).
        self.restarts = 0
        #: Total journaled rounds re-executed across all recoveries.
        self.replayed_rounds = 0
        #: Human-readable attribution, one entry per failure.
        self.failures: List[str] = []
        #: The staged-but-unfinished round, re-staged after recovery.
        self._current: Optional[tuple] = None

    # Host interface ---------------------------------------------------

    def horizon(self) -> float:
        return self._proxy.horizon()

    def begin_advance(
        self, until: float, inbound: Sequence[ShardMessage]
    ) -> None:
        self._current = (until, list(inbound))
        try:
            self._proxy.begin_advance(until, self._current[1])
        except _RECOVERABLE as exc:
            self._recover(exc)  # recovery re-stages self._current

    def finish_advance(self):
        while True:
            try:
                result = self._proxy.finish_advance()
            except _RECOVERABLE as exc:
                self._recover(exc)
                continue
            self._current = None
            return result

    def finalize(self) -> dict:
        while True:
            try:
                return self._proxy.finalize()
            except _RECOVERABLE as exc:
                self._recover(exc)

    def close(self) -> None:
        self._proxy.reap()

    # Chaos hooks ------------------------------------------------------

    def inject_kill(self) -> None:
        self._proxy.inject_kill()

    def inject_hang(self) -> None:
        self._proxy.inject_hang()

    # Recovery ---------------------------------------------------------

    def recovery_summary(self) -> dict:
        """Manifest-ready attribution of this shard's recoveries."""
        return {
            "restarts": self.restarts,
            "replayed_rounds": self.replayed_rounds,
            "failures": list(self.failures),
        }

    def _charge(self, cause: BaseException) -> None:
        """Record one failure against the budget; raise when spent."""
        self.failures.append(
            f"after round {self.journal.rounds - 1} "
            f"({type(cause).__name__}): {cause}"
        )
        if self.restarts >= self.max_restarts:
            detail = "; ".join(self.failures)
            raise ShardingError(
                f"shard {self.shard_id} exhausted its restart budget "
                f"(max_shard_restarts={self.max_restarts}): {detail}"
            ) from cause
        self.restarts += 1

    def _recover(self, cause: BaseException) -> None:
        """Replace the failed worker: reap, backoff, respawn, replay
        the journal (verifying digests), re-stage the current round."""
        self._charge(cause)
        self._proxy.reap()
        while True:
            time.sleep(
                min(
                    self.backoff_cap,
                    self.backoff_base * (2 ** (self.restarts - 1)),
                )
            )
            proxy = spawn_worker(
                self._ctx, self.shard_id, self.spec, self.window_timeout
            )
            try:
                for record in self.journal.shard_history(self.shard_id):
                    proxy.begin_advance(record.until, list(record.inbound))
                    _horizon, out = proxy.finish_advance()
                    digest = outbound_digest(out)
                    if digest != record.digest:
                        proxy.reap()
                        raise ShardingError(
                            f"shard {self.shard_id} diverged on replay of "
                            f"round {record.round_index}: outbound digest "
                            f"{digest} != journaled {record.digest}. The "
                            f"shard is not a pure function of (spec, "
                            f"inbound history) — its model breaks the "
                            f"named-stream determinism contract, so "
                            f"recovery cannot be trusted."
                        ) from cause
                    self.replayed_rounds += 1
                if self._current is not None:
                    proxy.begin_advance(
                        self._current[0], self._current[1]
                    )
            except _RECOVERABLE as replay_exc:
                # The fresh worker failed too: charge the budget and
                # try again (a divergence above is NOT retried — it is
                # a determinism bug, not a liveness one).
                self._charge(replay_exc)
                proxy.reap()
                continue
            self._proxy = proxy
            return


__all__ = ["ShardSupervisor"]
