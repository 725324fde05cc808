"""uqSim reproduction: accurate and scalable queueing-network
simulation for interactive microservices.

Reimplementation of *uqSim: Enabling Accurate and Scalable Simulation
for Interactive Microservices* (Zhang, Gan, Delimitrou -- ISPASS 2019)
as a Python library. See README.md for a tour and DESIGN.md for the
system inventory and experiment index.

Layers (bottom-up):

* :mod:`repro.engine` -- discrete-event core (events, queue, clock, RNG)
* :mod:`repro.distributions` -- processing-time distributions/histograms
* :mod:`repro.hardware` -- machines, cores, DVFS, network fabric
* :mod:`repro.service` -- intra-microservice model (stages, queues,
  paths, execution models, connections, I/O devices)
* :mod:`repro.topology` -- inter-microservice model (path trees,
  deployment, dispatcher, load balancing)
* :mod:`repro.faults` / :mod:`repro.resilience` -- fault injection
  (crashes, stragglers, link faults) and the policies that absorb them
  (timeouts, retries, hedging, circuit breaking, load shedding)
* :mod:`repro.workload` / :mod:`repro.telemetry` -- clients and metrics
* :mod:`repro.config` -- the JSON surface of paper Table I
* :mod:`repro.apps` -- NGINX/memcached/MongoDB/Thrift/Social-Network
  models and scenario builders
* :mod:`repro.bighouse` -- the BigHouse baseline simulator
* :mod:`repro.power` -- the QoS-aware power manager (Algorithm 1)
* :mod:`repro.testbed` -- the real-system surrogate
* :mod:`repro.experiments` -- figure/table harness and registry
"""

from ._lazy import attach
from .errors import (
    ConfigError,
    DistributionError,
    FaultError,
    ReproError,
    RequestFailed,
    RequestOutcomeError,
    RequestShed,
    RequestTimeout,
    ResourceError,
    SimulationError,
    TopologyError,
    WorkloadError,
)

__version__ = "1.0.0"

# The layers load on first use, so importing one layer does not import
# all of them.
__getattr__, __dir__ = attach(
    __name__,
    {"engine": ["Simulator"]},
    submodules=(
        "analysis", "apps", "bighouse", "config", "controlplane",
        "distributions", "engine", "experiments", "faults", "hardware",
        "power", "resilience", "runner", "service", "shard", "telemetry",
        "testbed", "topology", "workload",
    ),
)

__all__ = [
    "ConfigError",
    "DistributionError",
    "FaultError",
    "ReproError",
    "RequestFailed",
    "RequestOutcomeError",
    "RequestShed",
    "RequestTimeout",
    "ResourceError",
    "SimulationError",
    "Simulator",
    "TopologyError",
    "WorkloadError",
    "analysis",
    "apps",
    "bighouse",
    "config",
    "distributions",
    "engine",
    "experiments",
    "faults",
    "hardware",
    "power",
    "resilience",
    "service",
    "telemetry",
    "testbed",
    "topology",
    "workload",
]
