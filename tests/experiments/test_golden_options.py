"""Golden pins for the execution options: journal point keys and the
registry's capability matrix.

Both are recorded literals. A point key changing means every journaled
run directory written before the change stops resuming; a capability
changing means some ``repro experiments run`` invocation flips between
running and refusing. Neither may move by accident.
"""

import json
import warnings

import pytest

from repro.apps import two_tier
from repro.experiments import registry, validation
from repro.experiments.loadsweep import load_latency_sweep
from repro.experiments.orchestration import node_failure_experiment
from repro.experiments.tail_at_scale import tail_at_scale_sweep
from repro.faults import FaultPlan


def journal_keys(run_dir):
    """The point keys a sweep journaled, in journal order."""
    lines = (run_dir / "journal.jsonl").read_text().splitlines()
    return [json.loads(line)["key"] for line in lines if line.strip()]


def run_quietly(fn, **kwargs):
    # shards=2 on the default zero-lookahead fabrics falls back to one
    # shard with a RuntimeWarning; the key is what is pinned here.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return fn(**kwargs)


LOAD_SWEEP_KEYS = {
    "default": ["69b3040c9d50215a60b0", "644bfeba825cdc141f72"],
    "audit": ["200ec89cb1ef9beb3fbf", "b98b4240a9350905cdcb"],
    "trace": ["c6f44b0284ddc9da101c", "b0f298b7c345a6b8bb63"],
    "slo": ["77d078c1194d920b9af7", "82bf464315ce45acbe60"],
    "scrape": ["d52950c0c0c502dacbe6", "3705365802b6a3c0facd"],
    "shards": ["7ea5e231d572eb043bf7", "79dc465c662432090e01"],
    "fault_plan": ["cbf3bd816c6480134180", "421a08a57a111f01d3f5"],
}

LOAD_SWEEP_MIXES = {
    "default": {},
    "audit": {"audit": True},
    "trace": {"trace_dir": "TRACES"},
    "slo": {"slo": "p99<5ms"},
    "scrape": {"scrape_interval": 0.01},
    "shards": {"shards": 2},
    "fault_plan": {
        "fault_plan": FaultPlan().crash(0.01, "memcached0")
        .recover(0.015, "memcached0"),
    },
}


@pytest.mark.parametrize("mix", sorted(LOAD_SWEEP_MIXES))
def test_load_latency_sweep_point_keys(mix, tmp_path):
    knobs = dict(LOAD_SWEEP_MIXES[mix])
    if knobs.get("trace_dir") == "TRACES":
        knobs["trace_dir"] = tmp_path / "traces"
    run_dir = tmp_path / "run"
    run_quietly(
        load_latency_sweep, build_world=two_tier, loads=[2000.0, 4000.0],
        duration=0.02, warmup=0.005, seed=3, run_dir=run_dir,
        experiment="golden/two_tier", **knobs,
    )
    assert journal_keys(run_dir) == LOAD_SWEEP_KEYS[mix]


TAIL_SWEEP_KEYS = {
    "default": ["c5af7105c301589420eb", "626ae90dff008cac04da"],
    "audit": ["9cd5dd0026c9b1154243", "4a3edc804b0184cb0b8c"],
    "trace": ["c0a949e69e7561aa5837", "36cc4632b27ca63c459a"],
    "slo": ["b2cac8054edf1185288e", "af6474e8362936e0c711"],
    "shards": ["4c652dc12f9b07836e78", "30d132073a8277fdf7b0"],
    "fault_plan": ["6d82895f9afe1f99ad5e", "9ec6dc71f9b06fb064c2"],
}

TAIL_SWEEP_MIXES = {
    "default": {},
    "audit": {"audit": True},
    "trace": {"trace_dir": "TRACES", "trace_sample": 0.5},
    "slo": {"slo": ["p99<50ms", "avail>99%"]},
    "shards": {"shards": 2},
    "fault_plan": {"fault_plan": FaultPlan().slow(0.01, "leaf0", 3.0)},
}


@pytest.mark.parametrize("mix", sorted(TAIL_SWEEP_MIXES))
def test_tail_at_scale_sweep_point_keys(mix, tmp_path):
    knobs = dict(TAIL_SWEEP_MIXES[mix])
    if knobs.get("trace_dir") == "TRACES":
        knobs["trace_dir"] = tmp_path / "traces"
    run_dir = tmp_path / "run"
    run_quietly(
        tail_at_scale_sweep, cluster_sizes=(2, 3), slow_fractions=(0.0,),
        qps=200.0, num_requests=8, seed=4, run_dir=run_dir, **knobs,
    )
    assert journal_keys(run_dir) == TAIL_SWEEP_KEYS[mix]


FIG5_KEYS = {
    "default": ["3b15dc0613c4590b5d34", "58669554dd239734568e"],
    "trace": ["3824ab8a6e154d605bea", "14f45fb5807e36ef03b2"],
    "combined": ["1d5a2251659b2b290d6c", "6f8cd6f468cb56c65470"],
}

FIG5_MIXES = {
    "default": {},
    "trace": {"trace_dir": "TRACES", "trace_sample": 0.5},
    "combined": {"audit": True, "slo": "p99<5ms", "scrape_interval": 0.01,
                 "shards": 2},
}


@pytest.mark.parametrize("mix", sorted(FIG5_MIXES))
def test_validation_figure_point_keys(mix, tmp_path):
    # A validation figure journals its sim and real sweeps side by side.
    knobs = dict(FIG5_MIXES[mix])
    if knobs.get("trace_dir") == "TRACES":
        knobs["trace_dir"] = tmp_path / "traces"
    run_dir = tmp_path / "run"
    run_quietly(
        validation.fig5_two_tier, configs=((4, 1),),
        loads_by_processes={4: (2000.0,)}, duration=0.02, warmup=0.005,
        seed=5, run_dir=run_dir, **knobs,
    )
    assert journal_keys(run_dir) == FIG5_KEYS[mix]


NODE_FAILURE_KEYS = {
    "default": ["9c6701865c5c31ae80af"],
    "audit": ["ae6aad89b5c9ef3ade6e"],
    "fault_plan": ["6b4a4860775016127918"],
}

NODE_FAILURE_MIXES = {
    "default": {},
    "audit": {"audit": True},
    "fault_plan": {"fault_plan": FaultPlan().fail_machine(0.2, "node1")},
}


@pytest.mark.parametrize("mix", sorted(NODE_FAILURE_MIXES))
def test_node_failure_point_keys(mix, tmp_path):
    run_dir = tmp_path / "run"
    node_failure_experiment(
        seeds=(1,), qps=100.0, duration=0.5, fail_at=0.2, seed=2,
        recovery_from=0.3,
        run_dir=run_dir, **NODE_FAILURE_MIXES[mix],
    )
    assert journal_keys(run_dir) == NODE_FAILURE_KEYS[mix]


#: The options each registered experiment accepts, by option name.
#: ``shard_timeout`` stands for both shard-supervisor knobs.
CAPABILITIES = {
    "fig5": {"jobs", "run_dir", "audit", "trace_dir", "slo",
             "scrape_interval", "shards", "shard_timeout"},
    "fig6": {"jobs", "run_dir", "audit", "trace_dir"},
    "fig8": {"jobs", "run_dir", "audit", "trace_dir"},
    "fig10": {"jobs", "run_dir", "audit", "trace_dir"},
    "fig12a": {"jobs", "run_dir", "audit", "trace_dir"},
    "fig12b": {"jobs", "run_dir", "audit", "trace_dir", "slo",
               "scrape_interval", "shards", "shard_timeout"},
    "fig13_nginx": set(),
    "fig13_memcached": set(),
    "fig14": {"jobs", "run_dir", "audit", "trace_dir", "slo",
              "fault_plan", "shards", "shard_timeout"},
    "retry_storm": set(),
    "hedging": set(),
    "node_failure": {"jobs", "run_dir", "audit", "fault_plan"},
    "rollout": {"jobs", "run_dir", "audit"},
    "fig16": {"slo"},
    "table3": set(),
}

OPTION_NAMES = ("jobs", "run_dir", "audit", "trace_dir", "slo",
                "scrape_interval", "fault_plan", "shards", "shard_timeout")

#: Registries that predate the single ``supports(name)`` check exposed
#: one ``supports_*`` property per option, some under a shorter name.
_PROPERTY_NAMES = {"scrape_interval": "scrape", "shard_timeout": "shard_tuning"}


def supports(spec, name):
    check = getattr(spec, "supports", None)
    if callable(check):
        return check(name)
    return getattr(spec, "supports_" + _PROPERTY_NAMES.get(name, name))


def test_capability_matrix():
    matrix = {
        spec.exp_id: {name for name in OPTION_NAMES if supports(spec, name)}
        for spec in registry.all_experiments()
    }
    assert matrix == CAPABILITIES
