"""Durable experiment runs: a journaled run directory per sweep.

A multi-hour sweep that dies at point 199/200 should not owe the world
a fresh multi-hour run. :class:`RunStore` gives every run a directory
holding two files:

``journal.jsonl``
    One line per finished sweep point, appended (and flushed) the
    moment the point completes, keyed by a **content hash** of
    (experiment id, point spec, derived seed, code-relevant config) —
    :func:`point_key`. A key identifies a point's *inputs* exactly, so
    reusing a journaled result is byte-identical to recomputing it:
    seeds are derived before the fan-out and simulations are
    deterministic given their seed.

``manifest.json``
    An atomically-rewritten summary of the run: outcome per point,
    seeds, config hash, package versions, wall time, and final status
    (``completed`` / ``partial`` / ``interrupted``). The write goes to
    a temp file in the same directory followed by :func:`os.replace`,
    so a kill mid-write never leaves a torn manifest.

:func:`durable_map` is the glue the experiment layer uses: it skips
already-journaled points (``resume=True``), fans the missing ones out
through :func:`~repro.runner.parallel_map` in self-healing collect
mode, journals each as it lands, and always leaves a manifest behind —
including on ``KeyboardInterrupt``.

Results are stored as JSON, not pickles, so journals stay auditable
and diffable: dataclasses registered via :func:`register_result_type`
round-trip field-by-field (floats keep their exact bits — Python's
``repr`` shortest-round-trip guarantee), and only unregistered exotic
objects fall back to pickling.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import platform
import sys
import tempfile
import time
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from .. import __version__
from ..errors import PartialSweepError, ReproError

# -- result codec ----------------------------------------------------------

_RESULT_TYPES: Dict[str, type] = {}


def register_result_type(cls: type) -> type:
    """Register a dataclass so journal entries round-trip it by name.

    Usable as a decorator. Registration is keyed by class name; two
    result dataclasses with the same name would shadow each other, so
    that is rejected loudly.
    """
    if not is_dataclass(cls):
        raise ReproError(f"{cls!r} is not a dataclass")
    existing = _RESULT_TYPES.get(cls.__name__)
    if existing is not None and existing is not cls:
        raise ReproError(
            f"result type name {cls.__name__!r} already registered "
            f"by {existing.__module__}"
        )
    _RESULT_TYPES[cls.__name__] = cls
    return cls


def encode_value(value: Any) -> Any:
    """JSON-encodable form of *value*; see :func:`decode_value`."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, dict) and all(isinstance(k, str) for k in value):
        return {k: encode_value(v) for k, v in value.items()}
    if is_dataclass(value) and type(value).__name__ in _RESULT_TYPES:
        return {
            "__dc__": type(value).__name__,
            "fields": {
                f.name: encode_value(getattr(value, f.name))
                for f in fields(value)
            },
        }
    # Last resort for unregistered types: opaque but lossless.
    return {
        "__pickle__": base64.b64encode(
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii")
    }


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    if isinstance(value, dict):
        if "__tuple__" in value:
            return tuple(decode_value(v) for v in value["__tuple__"])
        if "__dc__" in value:
            name = value["__dc__"]
            cls = _RESULT_TYPES.get(name)
            if cls is None:
                raise ReproError(
                    f"journal references unregistered result type {name!r}; "
                    f"import the module that defines it before resuming"
                )
            return cls(**{
                k: decode_value(v) for k, v in value["fields"].items()
            })
        if "__pickle__" in value:
            return pickle.loads(base64.b64decode(value["__pickle__"]))
        return {k: decode_value(v) for k, v in value.items()}
    return value


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, exact floats."""
    return json.dumps(
        encode_value(value), sort_keys=True, separators=(",", ":")
    )


def point_key(
    experiment: str,
    item: Any,
    seed: Optional[int],
    config: Any = None,
) -> str:
    """Content hash naming one sweep point's inputs.

    Two points share a key iff they would compute the same result:
    same experiment id, same point spec, same derived seed, same
    code-relevant config. 80 bits of SHA-256 — collisions are not a
    practical concern at sweep scale.
    """
    payload = canonical_json({
        "experiment": experiment,
        "item": item,
        "seed": seed,
        "config": config,
    })
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def append_jsonl(path: Union[str, Path], entry: dict) -> None:
    """Durably append one JSON line (open-write-fsync-close).

    The journal discipline shared by :class:`RunStore` and the sharded
    replay log (:class:`repro.shard.journal.ReplayJournal`): entries
    land seconds apart, so per-line durability beats throughput, and a
    torn final line from a killed process leaves every earlier line
    intact.
    """
    line = json.dumps(entry, sort_keys=True)
    with open(path, "a") as fh:
        fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def write_json_atomic(path: Union[str, Path], payload: dict) -> None:
    """Write *payload* as JSON via a same-directory temp file and
    :func:`os.replace`, so readers never observe a torn file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def environment_info() -> Dict[str, str]:
    """The package/platform versions a manifest records."""
    return {
        "repro": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


# -- the store -------------------------------------------------------------

@dataclass
class RunSpan:
    """What a run's manifest counts over the whole run: when the run
    started and how many points it resumed from the journal. A caller
    that maps one run in several rounds (replications until they
    converge) keeps one span across its rounds, so the manifest each
    round rewrites describes the run so far, not only that round."""

    started_at: float = field(default_factory=time.time)
    resumed_points: int = 0


class RunStore:
    """One run directory: journal + manifest.

    The journal is append-only and keyed by content hash, so it doubles
    as a cache: a fresh run over an existing directory appends new
    entries (later entries win), while ``resume`` reuses any entry
    whose key matches — which is safe by construction, because the key
    covers everything the result depends on. *span* is the run this
    store's manifest describes; by default a new one starting now.
    """

    def __init__(
        self,
        run_dir: Union[str, Path],
        experiment: str = "run",
        config: Any = None,
        span: Optional[RunSpan] = None,
    ) -> None:
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.experiment = experiment
        self.config = config
        self.journal_path = self.run_dir / "journal.jsonl"
        self.manifest_path = self.run_dir / "manifest.json"
        self.span = RunSpan() if span is None else span
        self._entries: Dict[str, dict] = {}
        self._load_journal()

    def _load_journal(self) -> None:
        if not self.journal_path.exists():
            return
        with open(self.journal_path) as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    # A torn final line from a killed run: everything
                    # before it is intact, the point it described will
                    # simply be recomputed.
                    continue
                if isinstance(entry, dict) and "key" in entry:
                    self._entries[entry["key"]] = entry

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def entry(self, key: str) -> Optional[dict]:
        return self._entries.get(key)

    def has_ok(self, key: str) -> bool:
        entry = self._entries.get(key)
        return entry is not None and entry.get("outcome") == "ok"

    def result_for(self, key: str) -> Any:
        """Decode the journaled result for *key* (must be an ok entry)."""
        entry = self._entries[key]
        if entry.get("outcome") != "ok":
            raise ReproError(
                f"journal entry {key} has outcome "
                f"{entry.get('outcome')!r}, not 'ok'"
            )
        return decode_value(entry["result"])

    # -- recording --------------------------------------------------------

    def record_ok(
        self,
        key: str,
        *,
        item: Any,
        seed: Optional[int],
        result: Any,
        attempts: int = 1,
        wall_s: Optional[float] = None,
    ) -> None:
        self._append({
            "key": key,
            "outcome": "ok",
            "item": encode_value(item),
            "seed": seed,
            "attempts": attempts,
            "wall_s": wall_s,
            "recorded_at": time.time(),
            "result": encode_value(result),
        })

    def record_failure(
        self,
        key: str,
        *,
        item: Any,
        seed: Optional[int],
        error: str,
        kind: str = "exception",
        attempts: int = 1,
    ) -> None:
        self._append({
            "key": key,
            "outcome": "failed",
            "item": encode_value(item),
            "seed": seed,
            "attempts": attempts,
            "recorded_at": time.time(),
            "error": error,
            "kind": kind,
        })

    def _append(self, entry: dict) -> None:
        """Durably append one journal line (see :func:`append_jsonl`)."""
        append_jsonl(self.journal_path, entry)
        self._entries[entry["key"]] = entry

    # -- manifest ---------------------------------------------------------

    def write_manifest(
        self, status: str, extra: Optional[dict] = None
    ) -> dict:
        """Atomically (re)write ``manifest.json`` and return its payload."""
        outcomes = {
            key: {
                k: entry.get(k)
                for k in ("outcome", "seed", "attempts", "wall_s", "kind")
                if entry.get(k) is not None
            }
            for key, entry in sorted(self._entries.items())
        }
        counts: Dict[str, int] = {}
        for entry in self._entries.values():
            outcome = entry.get("outcome", "unknown")
            counts[outcome] = counts.get(outcome, 0) + 1
        payload = {
            "experiment": self.experiment,
            "status": status,
            "config": encode_value(self.config),
            "config_hash": point_key(self.experiment, None, None, self.config),
            "environment": environment_info(),
            "wall_time_s": round(time.time() - self.span.started_at, 3),
            "points": outcomes,
            "counts": counts,
        }
        if extra:
            payload.update(extra)
        write_json_atomic(self.manifest_path, payload)
        return payload


# -- the durable map -------------------------------------------------------

def durable_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    store: RunStore,
    keys: Sequence[str],
    seeds: Optional[Sequence[int]] = None,
    resume: bool = True,
    jobs: Optional[int] = 1,
    timeout: Optional[float] = None,
    manifest_extra: Optional[Any] = None,
) -> List[Any]:
    """:func:`parallel_map` with a journal in the loop.

    Points whose *key* already has an ``ok`` journal entry are reused
    (``resume=True``) without touching a worker; the rest run in
    collect mode so one bad point cannot abort the sweep. Every
    completion and every failure is journaled as it happens,
    and a manifest is written on the way out — on success, on partial
    failure, and on interrupt alike.

    *manifest_extra* adds sweep-level keys to the manifest: either a
    dict merged as-is, or a callable receiving the full result list
    (failures included) and returning a dict — how sweeps record
    aggregate verdicts such as SLO summaries. The callable is skipped
    on interrupt, when there is no complete result list to summarise.
    """
    # The process-pool stack loads here, not with the journal codec
    # that every result type's module imports.
    from .parallel import ItemFailure, parallel_map

    if len(keys) != len(items):
        raise ReproError(
            f"{len(items)} items but {len(keys)} keys"
        )
    if seeds is not None and len(seeds) != len(items):
        raise ReproError(
            f"{len(items)} items but {len(seeds)} seeds"
        )
    results: List[Any] = [None] * len(items)
    todo: List[int] = []
    for i, key in enumerate(keys):
        if resume and store.has_ok(key):
            results[i] = store.result_for(key)
        else:
            todo.append(i)

    def seed_of(i: int) -> Optional[int]:
        return None if seeds is None else seeds[i]

    def journal_ok(sub_index: int, result: Any) -> None:
        i = todo[sub_index]
        store.record_ok(
            keys[i], item=items[i], seed=seed_of(i), result=result,
        )

    failures: List[ItemFailure] = []
    try:
        sub_results = parallel_map(
            fn,
            [items[i] for i in todo],
            jobs=jobs,
            timeout=timeout,
            on_result=journal_ok,
            failures="collect",
        )
    except PartialSweepError as exc:
        sub_results = exc.results
        for failure in exc.failures:
            i = todo[failure.index]
            failures.append(ItemFailure(
                index=i,
                item=items[i],
                error=failure.error,
                kind=failure.kind,
                attempts=failure.attempts,
                seed=seed_of(i),
            ))
            store.record_failure(
                keys[i],
                item=items[i],
                seed=seed_of(i),
                error=failure.error,
                kind=failure.kind,
                attempts=failure.attempts,
            )
    except BaseException:
        # KeyboardInterrupt / hard errors: the journal already holds
        # every completed point; leave an honest manifest behind too.
        store.write_manifest(
            "interrupted",
            extra=manifest_extra if isinstance(manifest_extra, dict) else None,
        )
        raise
    remapped = {failure.index: failure for failure in failures}
    for sub_index, i in enumerate(todo):
        result = sub_results[sub_index]
        results[i] = remapped[i] if isinstance(result, ItemFailure) else result
    store.span.resumed_points += len(items) - len(todo)
    extra: Dict[str, Any] = {"resumed_points": store.span.resumed_points}
    if callable(manifest_extra):
        extra.update(manifest_extra(results) or {})
    elif manifest_extra:
        extra.update(manifest_extra)
    store.write_manifest("partial" if failures else "completed", extra=extra)
    if failures:
        raise PartialSweepError(failures, results)
    return results
