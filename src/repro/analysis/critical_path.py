"""Critical-path analysis over request traces.

With dispatcher tracing enabled (``Dispatcher(trace=True)`` or a
:class:`~repro.telemetry.tracing.TraceConfig`), every sampled request
carries a :class:`~repro.telemetry.tracing.Trace` of attempt-aware
:class:`~repro.telemetry.tracing.Span` objects. This module turns a
set of traced requests into the numbers an operator actually needs:

* per-node latency contributions (mean/percentile of node spans),
* the **critical path** of each request — the chain of spans whose
  durations sum (with the gaps between them) to the end-to-end
  latency, accounting for fan-out branches that overlap in time and
  for failed attempts whose time the request really did spend,
* aggregate blame: how often each node sits on the critical path.

This is the style of per-tier attribution the paper's power manager
needs (per-tier latency tuples) and the precursor of tools like Seer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import ReproError
from ..service import Request
from ..telemetry.tracing import SPAN_OK, Span, Trace


def spans_of(request: Request, include_cancelled: bool = False) -> List[Span]:
    """Extract the closed trace spans of one traced request.

    By default only successfully completed spans are returned; pass
    ``include_cancelled=True`` to also see spans of cancelled attempts
    (timeout victims, losing hedges) — each closed with its *own*
    timestamps.
    """
    trace = request.metadata.get("trace")
    if trace is None:
        raise ReproError(
            f"request {request.request_id} carries no trace; build the "
            f"Dispatcher with trace=True"
        )
    if not isinstance(trace, Trace):
        raise ReproError(
            f"request {request.request_id} carries a "
            f"{type(trace).__name__} trace, not a Trace"
        )
    return trace.completed_spans(include_cancelled=include_cancelled)


def chain_of(spans: Sequence[Span], label: str = "trace") -> List[Span]:
    """The latency-defining chain through a set of closed spans.

    Walks backwards from the last-finishing *successful* span, at each
    step jumping to the latest-finishing span that ended at or before
    the current span began — under fan-out, that is precisely the
    branch the synchronisation waited for; under retries, the failed
    attempt's cancelled spans (which ended before the retry began)
    join the chain, because the request genuinely spent that time. A
    losing hedge's span cannot join: it is cancelled at resolution,
    *after* the winner's chain began, so the walk passes it by.
    """
    spans = sorted(spans, key=lambda s: s.leave)
    anchors = [s for s in spans if s.status == SPAN_OK]
    if not anchors:
        raise ReproError(f"{label} has an empty trace")
    start = anchors[-1]
    path = [start]
    cursor = start.enter
    for span in reversed(spans):
        if span is not start and span.leave <= cursor + 1e-12:
            path.append(span)
            cursor = span.enter
    path.reverse()
    return path


def critical_path_of(trace: Trace) -> List[Span]:
    """The critical chain of one :class:`Trace` (in-memory or decoded
    from an OTLP file — no live :class:`Request` needed)."""
    return chain_of(
        trace.completed_spans(include_cancelled=True),
        label=f"request {trace.request_id}",
    )


def critical_path(request: Request) -> List[Span]:
    """The latency-defining chain of node visits of a traced request
    (see :func:`chain_of` for the walk)."""
    return chain_of(
        spans_of(request, include_cancelled=True),
        label=f"request {request.request_id}",
    )


@dataclass
class NodeContribution:
    """Aggregated latency attribution of one path node."""

    node: str
    mean_span: float
    p99_span: float
    critical_fraction: float  # share of requests where it's on the path
    visits: int


def analyze(requests: Iterable[Request]) -> Dict[str, NodeContribution]:
    """Aggregate per-node latency attribution over traced requests."""
    durations: Dict[str, List[float]] = {}
    critical_hits: Dict[str, int] = {}
    total = 0
    for request in requests:
        total += 1
        # Cancelled attempts count too: they can sit on the critical
        # path (a timed-out attempt the retry waited out), so every
        # node the path can name must have a contribution entry.
        for span in spans_of(request, include_cancelled=True):
            durations.setdefault(span.node, []).append(span.duration)
        # A node is "on the path" at most once per request, however
        # many of its visits (retried attempts) the chain includes.
        for node in {span.node for span in critical_path(request)}:
            critical_hits[node] = critical_hits.get(node, 0) + 1
    if total == 0:
        raise ReproError("no traced requests to analyze")
    result = {}
    for node, values in durations.items():
        arr = np.asarray(values)
        result[node] = NodeContribution(
            node=node,
            mean_span=float(arr.mean()),
            p99_span=float(np.percentile(arr, 99)),
            critical_fraction=critical_hits.get(node, 0) / total,
            visits=int(arr.size),
        )
    return result


def slowest_nodes(
    requests: Sequence[Request], top: int = 3
) -> List[Tuple[str, float]]:
    """The *top* nodes by mean critical-path presence x span — the
    first candidates for speeding up or scaling out."""
    contributions = analyze(requests)
    ranked = sorted(
        contributions.values(),
        key=lambda c: c.critical_fraction * c.mean_span,
        reverse=True,
    )
    return [(c.node, c.critical_fraction * c.mean_span) for c in ranked[:top]]
