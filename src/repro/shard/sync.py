"""Conservative time-window synchronisation across shards.

Each shard owns a :class:`~repro.engine.Simulator` and advances in
rounds under a :class:`ConservativeCoordinator`. The algorithm is the
classic conservative (CMB/YAWNS-style) window scheme:

* every shard reports its **effective horizon** ``eff_i`` — the
  earliest simulated time at which it could possibly execute anything
  (its next local event, or the earliest undelivered inbound message);
* shard ``i`` may safely run to ``bound_i = min_j(eff_j + D[j][i])``,
  where ``D[j][i]`` is the minimum latency of any path of cross-shard
  edges from ``j`` to ``i`` (the *lookahead* closure; ``D[i][i]`` is
  the shortest cycle through ``i``, bounding replies to ``i``'s own
  sends) — no event any shard executes this round can cause an
  arrival at ``i`` earlier than that;
* messages emitted during a round are exchanged at the barrier and
  scheduled by the receiver at their stamps before the next round.

Progress is guaranteed when every cross-shard edge has strictly
positive lookahead: the shard holding the globally earliest event
always has ``bound > eff`` and therefore executes it. A message
stamped earlier than the sender's clock plus its edge lookahead is a
broken contract and raises :class:`~repro.errors.ShardingError` — the
conservative guarantee is checked, not assumed.

Determinism: inbound messages are sorted by their canonical
:attr:`~repro.shard.message.ShardMessage.sort_key` before scheduling,
so delivery never depends on process timing; each shard draws from
named :class:`~repro.engine.RandomStreams` derived from the shared
root seed, so shard count never changes which values a component
draws.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine import PRIORITY_ARRIVAL, Simulator
from ..errors import ShardingError
from .message import ShardMessage, deterministic_order

INF = math.inf

#: Absolute slack for the send-time lookahead guard: delay arithmetic
#: (``now + sample``) and bound arithmetic (``now + minimum``) round
#: differently at the last ulp, and a one-ulp shortfall is not a
#: causality violation.
_GUARD_SLACK = 1e-15


class ShardHost:
    """One shard: a simulator plus mailbox plumbing.

    Subclasses implement :meth:`handle` (apply one inbound message to
    the local model) and extend :meth:`finalize` (return the shard's
    results as a picklable dict). The host is driven either in-process
    or inside a worker process (:mod:`repro.shard.worker`) — the
    interface is identical.
    """

    def __init__(
        self,
        shard_id: int,
        sim: Simulator,
        lookahead: float,
        end_time: Optional[float] = None,
    ) -> None:
        self.shard_id = shard_id
        self.sim = sim
        #: Minimum extra delay this shard adds to any outbound message
        #: (its outgoing edges' lookahead floor). The send guard checks
        #: against it.
        self.lookahead = float(lookahead)
        #: Optional hard horizon (duration-style measurements stop the
        #: clock at a fixed time, mirroring ``Simulator.run(until=...)``
        #: in the single-shard harness). Events stamped past it never
        #: run and do not count towards the reported horizon, so the
        #: coordinator terminates once every shard reaches it.
        self.end_time = end_time
        self._outbox: List[Tuple[int, ShardMessage]] = []
        self._send_seq = 0
        self._pending_advance: Optional[
            Tuple[float, List[ShardMessage]]
        ] = None
        # Per-round conservation ledger for the merged cross-shard
        # audit: one dict per advance() call (== one per coordinator
        # round, since every host advances every round), keyed by the
        # peer shard id as a string (picklable *and* JSON-safe, so the
        # ledger survives the worker pipe and the run manifest).
        self._round_sent: Dict[str, int] = {}
        self._conservation_sent: List[Dict[str, int]] = []
        self._conservation_recv: List[Dict[str, int]] = []
        # Runtime introspection (always on — a few appends per *round*,
        # never per event, so it stays off the engine fast path): wall
        # seconds spent executing each advance, events executed per
        # round, and the simulated window each round granted. Shipped
        # home in finalize()["runtime"] and aggregated by
        # ConservativeCoordinator.runtime_report.
        self._advance_wall: List[float] = []
        self._events_per_round: List[int] = []
        self._granted_windows: List[float] = []

    # Outbound ---------------------------------------------------------

    def send(
        self,
        dst_shard: int,
        time: float,
        kind: str,
        payload: tuple,
        priority: int = PRIORITY_ARRIVAL,
    ) -> None:
        """Queue a cross-shard delivery stamped at absolute *time*.

        The stamp must respect the conservative contract:
        ``time >= now + lookahead``. Violations raise
        :class:`~repro.errors.ShardingError` at the sender, where the
        bug is, instead of surfacing later as a past-event crash at the
        receiver.
        """
        if time < self.sim.now + self.lookahead - _GUARD_SLACK:
            raise ShardingError(
                f"shard {self.shard_id} stamped a message at t={time!r} "
                f"but its clock is {self.sim.now!r} with lookahead "
                f"{self.lookahead!r}: conservative windows require "
                f"stamps >= clock + lookahead"
            )
        self._send_seq += 1
        key = str(dst_shard)
        self._round_sent[key] = self._round_sent.get(key, 0) + 1
        self._outbox.append((
            dst_shard,
            ShardMessage(
                time=float(time),
                priority=priority,
                src_shard=self.shard_id,
                seq=self._send_seq,
                kind=kind,
                payload=payload,
            ),
        ))

    # Coordinator interface --------------------------------------------

    def horizon(self) -> float:
        """Earliest pending local event time (``inf`` when idle).

        Events at or past :attr:`end_time` will never run, so they do
        not count — a shard whose remaining work is entirely beyond the
        measurement horizon reports idle.
        """
        t = self.sim.events.peek_time()
        if t is None:
            return INF
        if self.end_time is not None and t > self.end_time:
            # run(until=...) is inclusive, so only *strictly* later
            # events are unreachable.
            return INF
        return t

    def begin_advance(
        self, until: float, inbound: Sequence[ShardMessage]
    ) -> None:
        """Stage one round (two-phase so process proxies can overlap)."""
        self._pending_advance = (until, list(inbound))

    def finish_advance(self) -> Tuple[float, List[Tuple[int, ShardMessage]]]:
        """Run the staged round; returns (new horizon, outbox)."""
        assert self._pending_advance is not None, "begin_advance not called"
        until, inbound = self._pending_advance
        self._pending_advance = None
        return self.advance(until, inbound)

    def advance(
        self, until: float, inbound: Sequence[ShardMessage]
    ) -> Tuple[float, List[Tuple[int, ShardMessage]]]:
        """Deliver *inbound*, run to *until* (inclusive), drain outbox."""
        wall_start = time.perf_counter()
        events_before = self.sim.events_processed
        clock_before = self.sim.now
        received: Dict[str, int] = {}
        for msg in inbound:
            key = str(msg.src_shard)
            received[key] = received.get(key, 0) + 1
        # Scheduled in sort_key order, so sequence numbers (and with
        # them same-instant ties) do not depend on the order shards
        # handed the messages over; each runs after the local events
        # already queued at its instant and priority.
        now = self.sim.now
        for msg in deterministic_order(inbound):
            if msg.time < now:
                raise ShardingError(
                    f"shard {self.shard_id} received {msg.kind!r} from "
                    f"shard {msg.src_shard} stamped t={msg.time!r} but "
                    f"its clock is already {self.sim.now!r}: the "
                    f"coordinator's window bound was not conservative"
                )
            self.sim.schedule_at(msg.time, self.handle, msg,
                                 priority=msg.priority)
        limit = until
        if self.end_time is not None:
            limit = min(limit, self.end_time)
        if math.isinf(limit):
            self.sim.run()
        else:
            self.sim.run(until=limit)
        out = self._outbox
        self._outbox = []
        self._conservation_recv.append(received)
        self._conservation_sent.append(self._round_sent)
        self._round_sent = {}
        self._advance_wall.append(time.perf_counter() - wall_start)
        self._events_per_round.append(
            self.sim.events_processed - events_before
        )
        # The simulated window this round granted. An unbounded round
        # (limit == inf: the shard drains) reports the clock it
        # actually covered instead of an unusable infinity.
        granted = limit - clock_before
        if math.isinf(granted):
            granted = self.sim.now - clock_before
        self._granted_windows.append(max(0.0, granted))
        return self.horizon(), out

    # Model hooks ------------------------------------------------------

    def handle(self, message: ShardMessage) -> None:
        """Apply one inbound message at its stamped time."""
        raise NotImplementedError

    def finalize(self) -> dict:
        """Shard results after the last round (picklable).

        The ``conservation`` block is the shard's half of the merged
        cross-shard audit (:func:`repro.experiments.audit.audit_sharded_run`):
        per-round send/receive counts keyed by peer shard, which the
        coordinator's barrier semantics tie together — everything sent
        in round *r* is delivered in round *r + 1*, exactly once.
        """
        return {
            "shard": self.shard_id,
            "events": self.sim.events_processed,
            "clock": self.sim.now,
            "conservation": {
                "sent": list(self._conservation_sent),
                "received": list(self._conservation_recv),
            },
            # Wall/window introspection per round; the coordinator
            # folds it into runtime_report (busy vs blocked wall,
            # window efficiency, idle rounds). Like the conservation
            # ledger, a replayed host rebuilds it from round zero, so
            # recovery keeps it consistent.
            "runtime": {
                "busy_wall_s": float(sum(self._advance_wall)),
                "events_per_round": list(self._events_per_round),
                "granted_windows_s": list(self._granted_windows),
            },
        }


class ConservativeCoordinator:
    """Runs a set of shard hosts to completion in conservative rounds.

    *lookaheads* maps ``(src, dst)`` shard pairs to the minimum delay
    of that edge; absent pairs mean "never sends directly". The
    coordinator closes the matrix over paths (an idle intermediate
    shard can be woken next round and relay), checks every finite
    entry is strictly positive, and then iterates rounds until every
    shard is idle with an empty mailbox.

    *max_window* optionally caps each round at
    ``min(eff) + max_window`` — useful to bound the memory of a shard
    racing far ahead; it cannot affect results, only round count.

    *journal*, when given, is a
    :class:`~repro.shard.journal.ReplayJournal` the coordinator fills
    with every completed round (bounds, inbound messages, outbound
    digests) — the replay log supervised workers recover from.
    *chaos* maps a round index to ``[(shard_id, action), ...]`` fault
    injections (``"kill"`` / ``"hang"``), fired just after the round's
    commands are staged; it requires hosts exposing the injection
    hooks (supervised process workers).
    """

    def __init__(
        self,
        hosts: Sequence,
        lookaheads: Dict[Tuple[int, int], float],
        max_window: Optional[float] = None,
        journal=None,
        chaos: Optional[Dict[int, Sequence[Tuple[int, str]]]] = None,
    ) -> None:
        self.hosts = list(hosts)
        self.journal = journal
        self.chaos = dict(chaos) if chaos else {}
        #: ``(round, shard, action)`` triples actually injected.
        self.chaos_fired: List[Tuple[int, int, str]] = []
        n = len(self.hosts)
        if n == 0:
            raise ShardingError("coordinator needs at least one shard")
        if max_window is not None and not max_window > 0:
            raise ShardingError(
                f"max_window must be positive, got {max_window!r}"
            )
        for at_round, injections in self.chaos.items():
            for shard, action in injections:
                if not 0 <= shard < n:
                    raise ShardingError(
                        f"chaos at round {at_round} targets shard "
                        f"{shard}, outside 0..{n - 1}"
                    )
                if action not in ("kill", "hang"):
                    raise ShardingError(
                        f"chaos action must be 'kill' or 'hang', "
                        f"got {action!r}"
                    )
                if not hasattr(self.hosts[shard], "inject_kill"):
                    raise ShardingError(
                        "chaos injection requires supervised process "
                        "workers (host has no injection hooks)"
                    )
        self.max_window = max_window
        self.rounds = 0
        self.messages_exchanged = 0
        #: Stall detections. A stall aborts the run, so this is 0 on
        #: success and 1 on a :class:`~repro.errors.ShardingError`
        #: stall abort — surfaced so post-mortems (and the manifest)
        #: can tell a stall from any other failure.
        self.stalls = 0
        #: Per round: the shard whose effective horizon bounded the
        #: round (argmin eff, ties to the lowest id) — the round's
        #: straggler, holding the globally earliest work.
        self.bound_by: List[int] = []
        #: ``shard id -> rounds it bounded``; values sum to exactly
        #: :attr:`rounds` (one attribution per round, checked by the
        #: timeline report's reconciliation).
        self.straggler_rounds: Dict[int, int] = {}
        #: Total wall seconds spent inside :meth:`run`'s round loop.
        self.wall_s = 0.0
        dist = [[INF] * n for _ in range(n)]
        for (src, dst), la in lookaheads.items():
            if not 0 <= src < n or not 0 <= dst < n:
                raise ShardingError(
                    f"lookahead edge ({src}, {dst}) outside 0..{n - 1}"
                )
            if src == dst:
                continue
            if not la > 0.0:
                raise ShardingError(
                    f"cross-shard edge ({src}, {dst}) has non-positive "
                    f"lookahead {la!r}; conservative sync cannot make "
                    f"progress — put the endpoints on one shard or fall back to "
                    f"shards=1 (see repro.shard.partition)"
                )
            dist[src][dst] = min(dist[src][dst], float(la))
        # Close over relay paths (Floyd–Warshall): when j is idle this
        # round, a message k -> j -> i next round is bounded by
        # D[k][j] + D[j][i], and the window for i must respect it.
        # The diagonal D[i][i] relaxes to the shortest *cycle* through
        # i — a message i sends can come back as a reply no earlier
        # than one round trip, and that bounds i against its own
        # future (request/reply topologies are cycles, so without the
        # diagonal a shard could race past replies to messages it is
        # about to send).
        for k in range(n):
            dk = dist[k]
            for i in range(n):
                dik = dist[i][k]
                if math.isinf(dik):
                    continue
                di = dist[i]
                for j in range(n):
                    via = dik + dk[j]
                    if via < di[j]:
                        di[j] = via
        self._dist = dist

    def run(self) -> List[dict]:
        """Drive all shards to completion; returns per-shard finalize
        dicts (in shard order)."""
        if self.journal is not None:
            from .journal import outbound_digest
        hosts = self.hosts
        n = len(hosts)
        dist = self._dist
        pending: List[List[ShardMessage]] = [[] for _ in range(n)]
        horizons = [host.horizon() for host in hosts]
        last_state: Optional[tuple] = None
        while True:
            round_start = time.perf_counter()
            effs = [
                min(
                    horizons[i],
                    min((m.time for m in pending[i]), default=INF),
                )
                for i in range(n)
            ]
            if all(math.isinf(e) for e in effs):
                break
            state = (tuple(effs), tuple(len(p) for p in pending))
            if state == last_state:
                self.stalls += 1
                raise ShardingError(
                    f"conservative rounds stalled at horizons {effs!r}: "
                    f"no shard advanced and no messages moved"
                )
            last_state = state
            min_eff = min(effs)
            # Straggler attribution: the shard holding the globally
            # earliest work bounds every window this round.
            binding = min(range(n), key=lambda i: (effs[i], i))
            self.bound_by.append(binding)
            self.straggler_rounds[binding] = (
                self.straggler_rounds.get(binding, 0) + 1
            )
            bounds = []
            for i in range(n):
                # j ranges over *all* shards: j == i uses the shortest
                # cycle through i (replies to i's own sends).
                bound = min(
                    (
                        effs[j] + dist[j][i]
                        for j in range(n)
                        if not math.isinf(dist[j][i])
                    ),
                    default=INF,
                )
                if self.max_window is not None:
                    bound = min(bound, min_eff + self.max_window)
                bounds.append(bound)
            inbounds = pending
            pending = [[] for _ in range(n)]
            for i in range(n):
                hosts[i].begin_advance(bounds[i], inbounds[i])
            # Chaos lands after the round's commands are staged: a
            # "kill" strikes the worker mid-advance (it may or may not
            # have replied — recovery must handle both), a "hang" is
            # queued behind the advance and silences the *next* read.
            for shard, action in self.chaos.get(self.rounds, ()):
                host = hosts[shard]
                if action == "kill":
                    host.inject_kill()
                else:
                    host.inject_hang()
                self.chaos_fired.append((self.rounds, shard, action))
            outs: List[List[Tuple[int, ShardMessage]]] = []
            for i in range(n):
                horizons[i], out = hosts[i].finish_advance()
                outs.append(out)
                for dst, msg in out:
                    if not 0 <= dst < n:
                        raise ShardingError(
                            f"shard {i} addressed unknown shard {dst}"
                        )
                    pending[dst].append(msg)
                    self.messages_exchanged += 1
            if self.journal is not None:
                self.journal.record_round(
                    self.rounds,
                    bounds,
                    inbounds,
                    [outbound_digest(out) for out in outs],
                )
            self.rounds += 1
            self.wall_s += time.perf_counter() - round_start
        return [host.finalize() for host in hosts]

    def runtime_report(self, results: Sequence[dict]) -> dict:
        """Fold coordinator counters and per-shard ``finalize`` runtime
        blocks into one introspection report.

        Per shard: wall seconds spent executing (``busy_wall_s``, from
        the host's own advance timing), wall seconds the coordinator's
        round loop ran while the shard was *not* executing
        (``blocked_wall_s`` — barrier waits in process mode, the other
        shards' turns inline), rounds that granted the shard a window
        it executed nothing in (``idle_rounds``), and window efficiency
        (events executed per simulated second of granted window).
        Plus the round-level attribution: which shard bounded each
        round's horizon (``straggler_rounds``, summing to exactly
        :attr:`rounds`) and per-edge mailbox volume series rebuilt from
        the conservation ledgers (totals sum to exactly
        :attr:`messages_exchanged`).
        """
        per_shard: Dict[str, dict] = {}
        mailbox_total: Dict[str, int] = {}
        mailbox_per_round: Dict[str, List[int]] = {}
        for result in results:
            shard = result["shard"]
            runtime = result.get("runtime") or {}
            events_per_round = list(runtime.get("events_per_round", ()))
            granted = list(runtime.get("granted_windows_s", ()))
            busy = float(runtime.get("busy_wall_s", 0.0))
            granted_total = float(sum(granted))
            per_shard[str(shard)] = {
                "events": result.get("events", 0),
                "busy_wall_s": busy,
                "blocked_wall_s": max(0.0, self.wall_s - busy),
                "rounds": len(events_per_round),
                "idle_rounds": sum(
                    1 for count in events_per_round if count == 0
                ),
                "events_per_round": events_per_round,
                "granted_windows_s": granted,
                "window_efficiency": (
                    sum(events_per_round) / granted_total
                    if granted_total > 0 else 0.0
                ),
            }
            sent = (result.get("conservation") or {}).get("sent", ())
            for round_index, round_sent in enumerate(sent):
                for dst, count in round_sent.items():
                    edge = f"{shard}->{dst}"
                    mailbox_total[edge] = (
                        mailbox_total.get(edge, 0) + count
                    )
                    series = mailbox_per_round.setdefault(edge, [])
                    while len(series) <= round_index:
                        series.append(0)
                    series[round_index] += count
        return {
            "rounds": self.rounds,
            "messages_exchanged": self.messages_exchanged,
            "stalls": self.stalls,
            "wall_s": self.wall_s,
            "mode": getattr(self, "mode", "inline"),
            "straggler_rounds": {
                str(shard): count
                for shard, count in sorted(self.straggler_rounds.items())
            },
            "bound_by": list(self.bound_by),
            "per_shard": per_shard,
            "mailbox_volume": dict(sorted(mailbox_total.items())),
            "mailbox_per_round": {
                edge: list(series)
                for edge, series in sorted(mailbox_per_round.items())
            },
        }
