"""Sharded traces against the single-simulator reference.

The adapter starts each node visit on arrival and merges every
shard's spans at the root; the exported closed spans must still be
exactly vanilla's, every attribute and time. Span ids are ignored:
the merge orders siblings entered at the same instant by node name.
"""

import pytest

from repro.apps import social_network
from repro.distributions import Deterministic
from repro.experiments.loadsweep import run_world, sweep_point
from repro.experiments.options import RunOptions
from repro.hardware import NetworkFabric
from repro.runner import derive_seed
from repro.shard.adapter import sharded_load_point
from repro.telemetry.export import read_otlp

QPS, DURATION, WARMUP = 1000.0, 0.05, 0.01
SEED = derive_seed(11, QPS)


def det_fabric():
    return NetworkFabric(propagation=Deterministic(50e-6))


def closed_spans(trace_dir):
    """Per exported trace, in export order: the request's own fields
    and its closed spans, sorted, as plain tuples (trace ids are
    process-global request ids, so they are left out)."""
    out = []
    for trace in read_otlp(trace_dir / f"qps{QPS:g}.otlp.json"):
        spans = sorted(
            (span.attempt, span.enter, span.node, span.instance,
             span.service, span.upstream, span.status, span.leave,
             span.network, span.queueing, span.service_time)
            for span in trace.spans if span.closed
        )
        out.append((trace.request_type, trace.created_at,
                    trace.completed_at, trace.outcome, spans))
    return out


@pytest.mark.parametrize("shards", [2, 4])
def test_social_network_exports_vanillas_closed_spans(tmp_path, shards):
    vdir, sdir = tmp_path / "vanilla", tmp_path / "sharded"
    traced = RunOptions(trace_dir=vdir)
    sweep_point(run_world(
        social_network, QPS, SEED, traced, duration=DURATION, warmup=WARMUP,
        network=det_fabric(),
    ), QPS, DURATION, WARMUP, SEED, traced)
    point = sharded_load_point(
        social_network, QPS, DURATION, WARMUP, SEED,
        options=RunOptions(shards=shards, trace_dir=sdir), mode="inline",
        network=det_fabric(),
    )
    assert point.shard_sync["shards"] == shards
    vanilla = closed_spans(vdir)
    assert sum(len(spans) for *_, spans in vanilla) > 0
    assert closed_spans(sdir) == vanilla
