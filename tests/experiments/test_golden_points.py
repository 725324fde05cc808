"""Golden pins for measured points: every field of a load-sweep point
and of a Fig 14 cell, plus the files a traced, scraped point exports.

Recorded literals. Scalars are pinned by their exact ``repr``; the
scrape timeline, which is a few kilobytes of series, by the sha256 of
its ``repr``. A refactor of the measurement pipeline must keep every
one of them, so a moved digit here means the refactor changed what the
simulator measures or writes.
"""

import dataclasses
import hashlib
import itertools

from repro.apps import two_tier
from repro.distributions import Deterministic
from repro.experiments.loadsweep import measure_at_load
from repro.experiments.tail_at_scale import measure_tail_at_scale
from repro.hardware import NetworkFabric
from repro.service import Request


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def field_reprs(point):
    return {f.name: repr(getattr(point, f.name))
            for f in dataclasses.fields(point)}


TWO_TIER_POINT = {
    "offered_qps": "2000.0",
    "throughput": "2175.0",
    "mean": "0.00023439116526023077",
    "p50": "0.00022320616585836534",
    "p95": "0.0003182944088415584",
    "p99": "0.00035321156067352923",
    "completed": "87",
    "slo": (
        "{'p99<5ms': {'metric': 'latency', 'threshold': 0.005, "
        "'window_s': 0.05, 'breaches': 0, 'pages': 0, "
        "'time_in_breach_s': 0.0, 'final_value': 0.00034862093306229914, "
        "'final_burn_rate': 0.0, 'max_burn_rate': 0.0, "
        "'breached_now': False}}"
    ),
    "shard_recovery": "None",
}

TWO_TIER_TIMELINE = (
    "4fff3ab1ef45002112aa776dc7c44adc3be864a37d8c35f71249c3ad1eef5dec"
)

TWO_TIER_FILES = {
    "qps2000.otlp.json":
        "0852b136b827b69d79b2bd8d2dca216ad1ca2a3716f7b5bf5d5b7d30a6bf4cf5",
    "qps2000.perfetto.json":
        "66ea791fe044354e58b809f5eac75357649e88086c5ff6791a93e974b0485f7f",
    "qps2000.timeseries.json":
        "3d8e273ed13bb06fa12f568270da4e2f0b574e7d9ae75b412f68b9717e274128",
}


def test_two_tier_load_point_with_telemetry(tmp_path, monkeypatch):
    # Request ids (and so exported trace ids) count up per process;
    # start them from zero so the file digests do not depend on what
    # ran before in the session.
    monkeypatch.setattr(Request, "_id_counter", itertools.count())
    point = measure_at_load(
        two_tier, 2000.0, duration=0.05, warmup=0.01, seed=3,
        slo="p99<5ms", scrape_interval=0.01, trace_dir=tmp_path,
    )
    fields = field_reprs(point)
    timeline = fields.pop("timeline")
    assert fields == TWO_TIER_POINT
    assert sha256(timeline.encode()) == TWO_TIER_TIMELINE
    assert {
        path.name: sha256(path.read_bytes()) for path in tmp_path.iterdir()
    } == TWO_TIER_FILES


def test_vanilla_fig14_cell():
    point = measure_tail_at_scale(16, 0.1, num_requests=40)
    assert field_reprs(point) == {
        "cluster_size": "16",
        "slow_fraction": "0.1",
        "p50": "0.007463183594036138",
        "p99": "0.037588088527658235",
        "requests": "40",
        "slo": "None",
        "shard_recovery": "None",
    }


def test_sharded_fig14_cell():
    point = measure_tail_at_scale(
        16, 0.1, num_requests=40, shards=2,
        network=NetworkFabric(propagation=Deterministic(20e-6)),
    )
    assert field_reprs(point) == {
        "cluster_size": "16",
        "slow_fraction": "0.1",
        "p50": "0.007463415426081199",
        "p99": "0.03758136166318672",
        "requests": "40",
        "slo": "None",
        "shard_recovery": "None",
    }
    assert point.shard_sync["shards"] == 2
