"""Per-shard worker processes.

Process-mode execution of :class:`~repro.shard.sync.ShardHost`: each
shard's simulator runs in its own OS process and the
:class:`~repro.shard.sync.ConservativeCoordinator` talks to it through
a :class:`ShardWorkerProxy` over a pipe. The proxy exposes the exact
host interface (``horizon`` / ``begin_advance`` / ``finish_advance`` /
``finalize``), so the coordinator is oblivious to where a shard runs —
which is also what makes inline mode (everything in-process, used by
the determinism tests and the sandbox fallback) bit-identical to
process mode by construction: the round structure and message order
are decided by the coordinator, never by process scheduling.

Hosts are built *inside* the worker from a picklable
``(builder, kwargs)`` spec — module-level builder functions taking
primitives — mirroring the :mod:`repro.runner.parallel` discipline.
Seeding needs no per-worker derivation: every shard constructs its
simulator from the **same root seed**, and determinism comes from the
named-stream discipline (:class:`~repro.engine.RandomStreams` derives
each component's generator from its name via ``SeedSequence``, so the
draws of ``service/leaf7`` are identical no matter which process, or
shard count, instantiates them).

Failure handling: every proxy read is a poll-with-deadline, so a dead
worker surfaces as :class:`ShardWorkerDied` and a hung one as
:class:`ShardWorkerHung` instead of blocking the coordinator forever.
Under supervision (:mod:`repro.shard.supervisor`, the default in
process mode) both are recoverable — the shard is rebuilt from its
spec and replayed from the coordinator's journal; unsupervised, they
abort the run loudly.

Environments where processes cannot be created (restricted sandboxes:
no fork, no pipes) degrade to inline mode with a ``RuntimeWarning`` —
same results, just single-core, matching ``parallel_map``'s fallback
contract.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
import warnings
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import ShardingError
from .message import ShardMessage

#: Wall-clock budget per conservative window before a worker that has
#: not replied is declared hung. Generous on purpose: a window of real
#: simulation work is seconds, not minutes, so five minutes of silence
#: means a stuck process, not a slow one.
DEFAULT_WINDOW_TIMEOUT = 300.0


class ShardWorkerDied(ShardingError):
    """A shard worker process exited (crash, OOM-kill, SIGKILL)."""


class ShardWorkerHung(ShardingError):
    """A shard worker is alive but silent past its window deadline."""


def _worker_main(conn, builder: Callable, kwargs: dict) -> None:
    """Worker process body: build the host, serve coordinator commands."""
    try:
        host = builder(**kwargs)
    except BaseException:
        conn.send(("err", traceback.format_exc()))
        conn.close()
        return
    conn.send(("ok", host.horizon()))
    try:
        while True:
            cmd = conn.recv()
            op = cmd[0]
            try:
                if op == "advance":
                    _op, until, inbound = cmd
                    horizon, out = host.advance(until, inbound)
                    conn.send(("ok", (horizon, out)))
                elif op == "finalize":
                    conn.send(("ok", host.finalize()))
                elif op == "stop":
                    return
                elif op == "hang":
                    # Chaos hook: go silent without exiting, the
                    # stuck-in-a-syscall failure mode. The supervisor
                    # must time out and SIGKILL us.
                    time.sleep(3600.0)
                else:
                    conn.send(("err", f"unknown shard command {op!r}"))
            except BaseException:
                conn.send(("err", traceback.format_exc()))
    except (EOFError, OSError):
        return  # parent went away; nothing left to serve
    finally:
        conn.close()


class ShardWorkerProxy:
    """Coordinator-side handle to one worker-process shard.

    Every read is bounded by *timeout* seconds (``None`` blocks
    forever, for debugging only): liveness failures raise typed
    :class:`ShardWorkerDied` / :class:`ShardWorkerHung` so the
    supervisor can tell "rebuild and replay" from "model bug".
    """

    def __init__(
        self,
        shard_id: int,
        process,
        conn,
        horizon: float,
        timeout: Optional[float] = DEFAULT_WINDOW_TIMEOUT,
    ) -> None:
        self.shard_id = shard_id
        self.timeout = timeout
        self._process = process
        self._conn = conn
        self._initial_horizon = horizon
        self._in_flight = False

    def _send(self, cmd: tuple) -> None:
        try:
            self._conn.send(cmd)
        except (BrokenPipeError, OSError) as exc:
            # A SIGKILL between rounds surfaces here, on the *next*
            # command, rather than on a read.
            raise ShardWorkerDied(
                f"shard worker {self.shard_id} died before {cmd[0]!r} "
                f"(exitcode={self._process.exitcode})"
            ) from exc

    def _recv(self):
        if self.timeout is not None and not self._conn.poll(self.timeout):
            raise ShardWorkerHung(
                f"shard worker {self.shard_id} (pid "
                f"{self._process.pid}) sent nothing for "
                f"{self.timeout:g}s (alive={self._process.is_alive()})"
            )
        try:
            status, payload = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise ShardWorkerDied(
                f"shard worker {self.shard_id} died mid-window "
                f"(exitcode={self._process.exitcode})"
            ) from exc
        if status != "ok":
            raise ShardingError(
                f"shard worker {self.shard_id} failed:\n{payload}"
            )
        return payload

    # Host interface ---------------------------------------------------

    def horizon(self) -> float:
        return self._initial_horizon

    def begin_advance(
        self, until: float, inbound: Sequence[ShardMessage]
    ) -> None:
        assert not self._in_flight
        self._in_flight = True
        self._send(("advance", until, list(inbound)))

    def finish_advance(self):
        assert self._in_flight
        self._in_flight = False
        return self._recv()

    def finalize(self) -> dict:
        self._send(("finalize",))
        result = self._recv()
        self.close()
        return result

    def close(self) -> None:
        try:
            self._conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self._process.join(timeout=10)
        if self._process.is_alive():  # pragma: no cover - hung worker
            self._process.terminate()
            self._process.join(timeout=10)
        if self._process.is_alive():  # pragma: no cover - survived TERM
            self._process.kill()
            self._process.join(timeout=10)
        self._conn.close()

    def reap(self) -> None:
        """Dispose of a dead or hung worker without the polite stop
        handshake: SIGKILL if still running, join, drop the pipe."""
        if self._process.is_alive():
            self._process.kill()
        self._process.join(timeout=10)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass

    # Chaos hooks ------------------------------------------------------

    def inject_kill(self) -> None:
        """SIGKILL the worker (fault injection). The death surfaces at
        the next proxy read/send as :class:`ShardWorkerDied`."""
        self._process.kill()
        self._process.join(timeout=10)

    def inject_hang(self) -> None:
        """Queue the hang command (fault injection): after finishing
        whatever it is doing, the worker goes silent and the next read
        times out as :class:`ShardWorkerHung`."""
        try:
            self._conn.send(("hang",))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass  # already dead; the kill path will handle it


HostSpec = Tuple[Callable, dict]


def spawn_worker(
    ctx,
    shard_id: int,
    spec: HostSpec,
    timeout: Optional[float] = DEFAULT_WINDOW_TIMEOUT,
) -> ShardWorkerProxy:
    """Start one worker process and complete the build handshake.

    Owns its own cleanup: any handshake failure (build error in the
    worker, dead process, silence past *timeout*) reaps the process
    and closes the parent pipe end before raising, so a failed spawn
    never leaks a process or a file descriptor.
    """
    builder, kwargs = spec
    parent_conn, child_conn = ctx.Pipe()
    process = ctx.Process(
        target=_worker_main,
        args=(child_conn, builder, kwargs),
        daemon=True,
        name=f"repro-shard-{shard_id}",
    )
    process.start()
    child_conn.close()
    try:
        if timeout is not None and not parent_conn.poll(timeout):
            raise ShardWorkerHung(
                f"shard {shard_id} sent no build handshake in "
                f"{timeout:g}s"
            )
        try:
            status, payload = parent_conn.recv()
        except (EOFError, OSError) as exc:
            raise ShardWorkerDied(
                f"shard {shard_id} died during build "
                f"(exitcode={process.exitcode})"
            ) from exc
        if status != "ok":
            raise ShardingError(
                f"shard {shard_id} failed to build:\n{payload}"
            )
    except BaseException:
        if process.is_alive():
            process.kill()
        process.join(timeout=10)
        parent_conn.close()
        raise
    return ShardWorkerProxy(
        shard_id, process, parent_conn, payload, timeout=timeout
    )


def start_shard_hosts(
    specs: Sequence[HostSpec],
    mode: str = "auto",
    timeout: Optional[float] = DEFAULT_WINDOW_TIMEOUT,
) -> Tuple[List, str]:
    """Build one host per spec; returns ``(hosts, effective_mode)``.

    ``mode``:

    * ``"inline"`` — construct every host in this process.
    * ``"process"`` — one worker process per shard; raises
      :class:`~repro.errors.ShardingError` if processes cannot start.
    * ``"auto"`` — process mode, degrading to inline with a
      ``RuntimeWarning`` where process infrastructure is unavailable.
    """
    if mode not in ("auto", "process", "inline"):
        raise ShardingError(
            f'shard mode must be "auto", "process" or "inline", '
            f"got {mode!r}"
        )
    if mode == "inline" or len(specs) <= 1:
        return [builder(**kwargs) for builder, kwargs in specs], "inline"
    try:
        return _start_processes(specs, timeout=timeout), "process"
    except (OSError, PermissionError) as exc:
        if mode == "process":
            raise ShardingError(
                f"cannot start shard worker processes: {exc}"
            ) from exc
        warnings.warn(
            f"shard worker processes unavailable ({exc}); running "
            f"{len(specs)} shards inline in one process",
            RuntimeWarning, stacklevel=2,
        )
        return [builder(**kwargs) for builder, kwargs in specs], "inline"


def _start_processes(
    specs: Sequence[HostSpec],
    timeout: Optional[float] = DEFAULT_WINDOW_TIMEOUT,
) -> List[ShardWorkerProxy]:
    ctx = multiprocessing.get_context()
    proxies: List[ShardWorkerProxy] = []
    try:
        for shard_id, spec in enumerate(specs):
            proxies.append(spawn_worker(ctx, shard_id, spec, timeout))
    except BaseException:
        for proxy in proxies:
            proxy.close()
        raise
    return proxies


def run_sharded(
    specs: Sequence[HostSpec],
    lookaheads,
    mode: str = "auto",
    max_window=None,
    *,
    supervise: str = "auto",
    window_timeout: Optional[float] = DEFAULT_WINDOW_TIMEOUT,
    max_shard_restarts: int = 3,
    journal_path=None,
    chaos=None,
) -> Tuple[List[dict], "object"]:
    """Build hosts, run the conservative rounds, return results.

    Returns ``(per-shard finalize dicts, coordinator)`` — the
    coordinator exposes ``rounds``, ``messages_exchanged`` and (when
    supervised) ``recovery`` for telemetry. Worker cleanup is owned
    here: a failure mid-run still tears the processes down.

    In process mode, workers are wrapped in
    :class:`~repro.shard.supervisor.ShardSupervisor` by default
    (``supervise="auto"``): a worker that dies or hangs mid-run is
    rebuilt from its spec and replayed from the round journal instead
    of aborting the run. ``supervise="never"`` keeps the bare proxies
    (failures abort loudly). *journal_path*, when set, mirrors the
    replay journal to JSONL on disk. *chaos* maps a round index to
    ``[(shard_id, "kill" | "hang"), ...]`` fault injections — it
    requires supervised process workers, since an unsupervised or
    inline run cannot survive them.
    """
    from .journal import ReplayJournal
    from .supervisor import ShardSupervisor
    from .sync import ConservativeCoordinator

    if supervise not in ("auto", "always", "never"):
        raise ShardingError(
            f'supervise must be "auto", "always" or "never", '
            f"got {supervise!r}"
        )
    hosts, effective_mode = start_shard_hosts(
        specs, mode=mode, timeout=window_timeout
    )
    supervised = supervise != "never" and effective_mode == "process"
    if supervise == "always" and effective_mode != "process":
        raise ShardingError(
            "supervise='always' requires process-mode shard workers"
        )
    journal = None
    if supervised:
        journal = ReplayJournal(len(specs), path=journal_path)
        ctx = multiprocessing.get_context()
        hosts = [
            ShardSupervisor(
                shard_id,
                specs[shard_id],
                proxy,
                journal,
                max_restarts=max_shard_restarts,
                window_timeout=window_timeout,
                ctx=ctx,
            )
            for shard_id, proxy in enumerate(hosts)
        ]
    elif chaos:
        raise ShardingError(
            "chaos injection (shard_kill) requires supervised process "
            "workers; this run resolved to "
            f"mode={effective_mode!r}, supervise={supervise!r}"
        )
    coordinator = ConservativeCoordinator(
        hosts, lookaheads, max_window=max_window,
        journal=journal, chaos=chaos,
    )
    coordinator.mode = effective_mode
    coordinator.supervised = supervised
    try:
        results = coordinator.run()
    except BaseException:
        for host in hosts:
            if hasattr(host, "close"):
                host.close()
        raise
    if supervised:
        per_shard = {
            host.shard_id: host.recovery_summary()
            for host in hosts
            if host.restarts
        }
        coordinator.recovery = {
            "restarts": sum(host.restarts for host in hosts),
            "replayed_rounds": sum(host.replayed_rounds for host in hosts),
            "per_shard": per_shard,
        }
    else:
        coordinator.recovery = None
    # Fold the per-shard finalize runtime blocks + coordinator counters
    # into the introspection report once, here, so every caller
    # (adapter, benchmarks) reads ``coordinator.runtime``
    # instead of re-deriving it. O(rounds x shards), off any hot path.
    coordinator.runtime = coordinator.runtime_report(results)
    return results, coordinator


__all__ = [
    "DEFAULT_WINDOW_TIMEOUT",
    "ShardWorkerDied",
    "ShardWorkerHung",
    "ShardWorkerProxy",
    "spawn_worker",
    "start_shard_hosts",
    "run_sharded",
]
