"""The NGINX model.

Paper SSIV-E: NGINX is modelled with two stages — ``epoll`` and
``handler_processing`` (Fig 3 additionally shows the TCP rx/tx handled
by the per-machine network-processing service). We give the handler
three execution paths for NGINX's three jobs in the evaluation:

* ``serve``  — static page webserver (LB backends, fanout leaves);
* ``proxy``  — parse a request and forward it upstream (2-tier entry,
  LB/fanout proxy);
* ``respond`` — compose and send the final response when the upstream
  answer comes back (the revisit node of multi-tier trees).
"""

from __future__ import annotations

from ..hardware import CoreSet
from ..service import (
    EpollQueue,
    ExecutionPath,
    Microservice,
    MultiThreadedModel,
    PathSelector,
    SingleQueue,
    Stage,
)
from . import calibration as cal
from .base import World, det_time, stage_time

EPOLL, SERVE, PROXY, RESPOND = range(4)

SERVE_PATH = "serve"
PROXY_PATH = "proxy"
RESPOND_PATH = "respond"


def make_nginx(
    world: World,
    machine_name: str,
    name: str = "nginx0",
    processes: int = 8,
    epoll_events: int = 16,
    tier: str = "nginx",
    batching: bool = True,
) -> Microservice:
    """Build and register one NGINX instance with *processes* worker
    processes, each pinned to a dedicated core (SSIV-A).

    ``batching=False`` is an ablation switch: the epoll stage serves one
    job per invocation (its base cost is charged to every request), the
    single-queue failure mode of BigHouse."""
    cores = world.cluster.machine(machine_name).allocate(name, processes)
    instance = build_nginx(
        world, name, machine_name, cores,
        epoll_events=epoll_events, tier=tier, batching=batching,
    )
    world.deployment.add_instance(instance)
    return instance


def build_nginx(
    world: World,
    name: str,
    machine_name: str,
    cores: CoreSet,
    epoll_events: int = 16,
    tier: str = "nginx",
    batching: bool = True,
) -> Microservice:
    """Build (but do not register) one NGINX instance on *cores*, which
    the caller has already reserved on *machine_name* — one worker
    process per core. A control-plane replica factory calls this with
    the cores its scheduler placed."""
    realism = world.realism
    epoll_queue = (
        EpollQueue(per_connection_limit=epoll_events)
        if batching
        else SingleQueue(batch_limit=1)
    )
    stages = [
        Stage(
            "epoll",
            EPOLL,
            epoll_queue,
            base=det_time(cal.NGINX_EPOLL_BASE, realism),
            per_job=det_time(cal.NGINX_EPOLL_PER_EVENT, realism),
            batching=True,
        ),
        Stage(
            "handler_processing",
            SERVE,
            SingleQueue(),
            base=stage_time(cal.NGINX_HANDLER, 4, realism),
        ),
        Stage(
            "proxy_processing",
            PROXY,
            SingleQueue(),
            base=stage_time(cal.NGINX_PROXY_HANDLER, 4, realism),
        ),
        Stage(
            "response_processing",
            RESPOND,
            SingleQueue(),
            base=stage_time(cal.NGINX_RESPOND, 4, realism),
        ),
    ]
    selector = PathSelector(
        [
            ExecutionPath(0, SERVE_PATH, [EPOLL, SERVE]),
            ExecutionPath(1, PROXY_PATH, [EPOLL, PROXY]),
            ExecutionPath(2, RESPOND_PATH, [EPOLL, RESPOND]),
        ]
    )
    # NGINX worker processes are single-threaded event loops: one
    # process per core, context switching negligible under pinning.
    return Microservice(
        name,
        world.sim,
        stages,
        selector,
        cores,
        model=MultiThreadedModel(len(cores), context_switch=1e-6),
        machine_name=machine_name,
        tier=tier,
    )
