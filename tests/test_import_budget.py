"""Import budget: a world loads only the layers it runs.

``repro`` and its aggregator packages (``runner``, ``telemetry``,
``experiments``, ``analysis``) re-export lazily, so building and running
a world never pays for the analysis, experiment, shard or export stacks
it does not use. Each check runs in a fresh interpreter, because this
test process has long since imported everything. That every name in
each ``__all__`` resolves is checked in ``test_repo_consistency.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def run_fresh(code: str):
    """Run *code* in a new interpreter and return the JSON it prints."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_building_blocks_do_not_load_the_tooling_stacks():
    loaded = run_fresh(
        "import json, sys\n"
        "import repro.apps, repro.workload\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    for module in ("repro.experiments", "repro.analysis", "repro.shard",
                   "repro.runner.parallel", "repro.telemetry.export",
                   "concurrent.futures.process"):
        assert module not in loaded


# The vanilla benchmark worlds at tiny parameters: each builds a world,
# starts its client and leaves the timed region, ``sim.run()``, to the
# caller.
WORLDS = {
    "two_tier": """
from repro.apps import two_tier
world = two_tier(nginx_processes=8, memcached_threads=4, seed=1)
client = dict(arrivals=20000.0, stop_at=0.005)
""",
    "social_network": """
from repro.apps import social_network
from repro.distributions import Deterministic
from repro.hardware import NetworkFabric
world = social_network(
    seed=1, network=NetworkFabric(propagation=Deterministic(100e-6)))
client = dict(arrivals=3000.0, stop_at=0.01)
""",
    "fanout": """
from repro.experiments.tail_at_scale import build_fanout_cluster
world = build_fanout_cluster(20, 0.1, seed=1)
client = dict(arrivals=200.0, max_requests=5)
""",
    "retry_storm": """
from repro.experiments.resilience import build_single_tier
from repro.resilience import ResiliencePolicy, RetryPolicy
world = build_single_tier(1e-3, seed=1)
client = dict(arrivals=1200.0, stop_at=0.05, resilience=ResiliencePolicy(
    timeout=10e-3,
    retry=RetryPolicy(max_attempts=4, backoff_base=1e-3, jitter=1e-4)))
""",
}


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_running_a_world_imports_nothing(name):
    result = run_fresh(WORLDS[name] + """
import json, sys
from repro.workload import OpenLoopClient
client = OpenLoopClient(world.sim, world.dispatcher, **client)
client.start()
before = set(sys.modules)
world.sim.run()
print(json.dumps([client.requests_ok, sorted(set(sys.modules) - before)]))
""")
    requests_ok, imported = result
    assert requests_ok > 0
    assert imported == []


def test_a_name_shared_with_its_submodule_stays_the_callable():
    # Importing the submodule first must not leave the package attribute
    # bound to the module.
    shared = run_fresh("""
import json, sys
import repro.analysis.critical_path
import repro.analysis
from repro.analysis import critical_path
module = sys.modules["repro.analysis.critical_path"]
print(json.dumps([repro.analysis.critical_path is module.critical_path,
                  critical_path is module.critical_path]))
""")
    assert shared == [True, True]
