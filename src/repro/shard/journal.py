"""Barrier-replay journal for the sharded simulation core.

Fault tolerance for conservative-window execution rests on one fact:
a shard's state at any barrier is a pure function of its build spec
(seed included) and the inbound messages it was handed each round.
The :class:`~repro.shard.sync.ConservativeCoordinator` therefore
journals every *completed* round — the ``until`` bound and inbound
:class:`~repro.shard.message.ShardMessage` list per shard, plus a
digest of each shard's outbound — and a dead or hung worker can be
rebuilt from scratch and *replayed* to the last completed barrier
(:class:`~repro.shard.supervisor.ShardSupervisor`).

Replay is verified, not assumed: the rebuilt shard's outbound digest
at every replayed round must match the journaled digest. A mismatch
means the model is not deterministic under its named-stream seeding
discipline (or the journal was tampered with), and recovery refuses
to continue — a loud :class:`~repro.errors.ShardingError` beats
silently-corrupted statistics.

The journal is in-memory by default; with a ``path`` it also appends
one JSON line per round (the :func:`repro.runner.append_jsonl`
discipline RunStore uses — durable per line, torn tails ignored), so
a post-mortem or an external auditor can re-check digests without
rerunning anything.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import ShardingError
from ..runner.runstore import append_jsonl
from .message import ShardMessage

#: One outbound entry as the host produced it: ``(dst_shard, message)``.
Outbound = Tuple[int, ShardMessage]


def _message_token(dst: Optional[int], msg: ShardMessage) -> tuple:
    """Canonical, bit-exact encoding of one message for digesting.

    ``float.hex`` pins the exact bits of the stamp (repr would too, but
    hex makes the -0.0 / 0.0 distinction impossible to miss); payloads
    are plain tuples of primitives whose ``repr`` is deterministic.
    """
    return (
        dst,
        float(msg.time).hex(),
        msg.priority,
        msg.src_shard,
        msg.seq,
        msg.kind,
        repr(msg.payload),
    )


def outbound_digest(out: Sequence[Outbound]) -> str:
    """Deterministic digest of one shard's outbound for one round.

    Order-sensitive on purpose: the outbox order is part of the
    deterministic contract (it is drained in send order), so a replay
    that produces the same messages in a different order is still a
    divergence.
    """
    h = hashlib.sha256()
    for dst, msg in out:
        h.update(repr(_message_token(dst, msg)).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _encode_message(msg: ShardMessage) -> dict:
    return {
        "time": msg.time,
        "priority": msg.priority,
        "src_shard": msg.src_shard,
        "seq": msg.seq,
        "kind": msg.kind,
        "payload": list(msg.payload),
    }


def _decode_message(payload: dict) -> ShardMessage:
    return ShardMessage(
        time=float(payload["time"]),
        priority=int(payload["priority"]),
        src_shard=int(payload["src_shard"]),
        seq=int(payload["seq"]),
        kind=str(payload["kind"]),
        payload=tuple(payload["payload"]),
    )


@dataclass(frozen=True)
class RoundRecord:
    """One shard's slice of one completed round: everything needed to
    re-execute it (``until``, ``inbound``) and to verify the
    re-execution (``digest`` of the outbound it must reproduce)."""

    round_index: int
    until: float
    inbound: Tuple[ShardMessage, ...]
    digest: str


class ReplayJournal:
    """The coordinator's replay log: per-shard round history.

    Appended once per completed barrier by the coordinator; read back
    by :class:`~repro.shard.supervisor.ShardSupervisor` when it
    rebuilds a shard. Memory note: the journal holds every inbound
    message of the run (that *is* the replay history — conservative
    recovery has no checkpoints), which for the mailbox volumes of the
    ported topologies is far smaller than the shards' own event state.
    """

    def __init__(
        self, num_shards: int, path: Optional[Union[str, Path]] = None
    ) -> None:
        if num_shards < 1:
            raise ShardingError(
                f"replay journal needs >= 1 shard, got {num_shards!r}"
            )
        self.num_shards = num_shards
        self.path = Path(path) if path is not None else None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        #: ``_rounds[r][i]`` is shard *i*'s record of round *r*.
        self._rounds: List[List[RoundRecord]] = []

    @property
    def rounds(self) -> int:
        """Completed (journaled) rounds so far."""
        return len(self._rounds)

    def record_round(
        self,
        round_index: int,
        untils: Sequence[float],
        inbounds: Sequence[Sequence[ShardMessage]],
        digests: Sequence[str],
    ) -> None:
        """Journal one completed barrier (all shards at once)."""
        if round_index != len(self._rounds):
            raise ShardingError(
                f"journal expected round {len(self._rounds)}, "
                f"got {round_index}"
            )
        if not (
            len(untils) == len(inbounds) == len(digests) == self.num_shards
        ):
            raise ShardingError(
                f"journal round {round_index} shape mismatch: "
                f"{len(untils)}/{len(inbounds)}/{len(digests)} entries "
                f"for {self.num_shards} shards"
            )
        records = [
            RoundRecord(
                round_index=round_index,
                until=float(untils[i]),
                inbound=tuple(inbounds[i]),
                digest=digests[i],
            )
            for i in range(self.num_shards)
        ]
        self._rounds.append(records)
        if self.path is not None:
            append_jsonl(self.path, {
                "round": round_index,
                "shards": [
                    {
                        "until": rec.until,
                        "inbound": [
                            _encode_message(m) for m in rec.inbound
                        ],
                        "outbound_digest": rec.digest,
                    }
                    for rec in records
                ],
            })

    def shard_history(self, shard_id: int) -> Iterator[RoundRecord]:
        """Shard *shard_id*'s records for every completed round, in
        round order — the replay script for a rebuilt worker."""
        if not 0 <= shard_id < self.num_shards:
            raise ShardingError(
                f"shard {shard_id} outside 0..{self.num_shards - 1}"
            )
        for records in self._rounds:
            yield records[shard_id]

    def digest_at(self, round_index: int, shard_id: int) -> str:
        """The journaled outbound digest of (*round_index*, *shard_id*)."""
        return self._rounds[round_index][shard_id].digest

    def message_counts(self) -> Dict[Tuple[int, int], int]:
        """Journaled deliveries per ``(src, dst)`` pair — the
        coordinator-side half of the cross-shard conservation audit
        (each message was journaled as *inbound* at its receiver)."""
        counts: Dict[Tuple[int, int], int] = {}
        for records in self._rounds:
            for dst, rec in enumerate(records):
                for msg in rec.inbound:
                    key = (msg.src_shard, dst)
                    counts[key] = counts.get(key, 0) + 1
        return counts


def load_replay_journal(
    path: Union[str, Path], num_shards: Optional[int] = None
) -> ReplayJournal:
    """Rebuild a :class:`ReplayJournal` from its on-disk JSONL form.

    Used by post-mortem tooling and the CI chaos smoke to re-check
    recovery claims against what was actually journaled. A torn final
    line (killed writer) is skipped, matching RunStore's tolerance.
    """
    path = Path(path)
    rounds: List[dict] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            rounds.append(entry)
    if not rounds:
        raise ShardingError(f"replay journal {path} holds no rounds")
    inferred = len(rounds[0]["shards"])
    journal = ReplayJournal(num_shards or inferred)
    for entry in rounds:
        shards = entry["shards"]
        journal.record_round(
            int(entry["round"]),
            [s["until"] for s in shards],
            [[_decode_message(m) for m in s["inbound"]] for s in shards],
            [s["outbound_digest"] for s in shards],
        )
    return journal


__all__ = [
    "ReplayJournal",
    "RoundRecord",
    "load_replay_journal",
    "outbound_digest",
]
