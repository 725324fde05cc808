"""End-to-end application builders for every evaluation scenario.

Each function assembles the full world of one paper experiment —
cluster, instance deployment, network-processing services, connection
pools, and inter-microservice path trees — and returns a
:class:`~repro.apps.base.World` ready for a client. Passing a
:class:`~repro.testbed.RealismConfig` builds the "real system"
counterpart instead (see DESIGN.md SS1).
"""

from __future__ import annotations

import functools
from typing import Optional

from ..distributions import Exponential
from ..hardware import Machine, NetworkFabric
from ..testbed import RealismConfig
from ..topology import NodeOp, PathNode, PathTree
from . import calibration as cal
from . import memcached as mc
from . import mongodb as mongo
from . import nginx
from . import thrift
from .base import World, add_client_machine, make_netproc, new_world

CLIENT_MACHINE = "client"


def _server(world: World, name: str = "server0", cores: int = 40) -> Machine:
    """A Table II-class server with DVFS."""
    machine = Machine.table2(name)
    if cores != 40:
        machine = Machine(name, cores, machine.ladder)
    return world.cluster.add_machine(machine)


# ---------------------------------------------------------------------------
# Fig 4(a) / Fig 5: 2-tier NGINX -> memcached
# ---------------------------------------------------------------------------

def two_tier(
    nginx_processes: int = 8,
    memcached_threads: int = 4,
    seed: int = 0,
    realism: Optional[RealismConfig] = None,
    network: Optional[NetworkFabric] = None,
    client_connections: int = cal.WRK2_CONNECTIONS,
    interrupt_cores: int = cal.NETPROC_DEFAULT_CORES,
    epoll_events: int = 16,
    http_blocking: bool = True,
    batching: bool = True,
) -> World:
    """The NGINX-memcached application of Fig 4(a).

    NGINX receives the client request over http/1.1 (blocking the
    receive side of the connection while a request is in flight),
    queries memcached for the key, and returns the ``<key,value>``
    pair. Both tiers are colocated on one Table II server with pinned
    cores, as in SSIV-A.

    Ablation knobs: *batching* (False makes epoll/socket_read serve one
    job per invocation — base costs charged per request, the BigHouse
    failure mode), *interrupt_cores* (0 removes the shared
    network-processing service), *http_blocking* (False drops the
    per-connection block/unblock ops).
    """
    world = new_world(network, seed, realism)
    add_client_machine(world)
    _server(world)
    nginx.make_nginx(
        world, "server0", "nginx0", processes=nginx_processes,
        epoll_events=epoll_events, batching=batching,
    )
    mc.make_memcached(
        world, "server0", "memcached0", threads=memcached_threads,
        epoll_events=epoll_events,
        read_batch=max(1, min(16, epoll_events)),
        batching=batching,
    )
    if interrupt_cores > 0:
        make_netproc(world, "server0", cores=interrupt_cores)
    world.deployment.set_pool("nginx", client_connections)
    world.deployment.set_pool("memcached", 16)

    tree = PathTree("two_tier")
    tree.chain(
        PathNode(
            "nginx", "nginx",
            path_name=nginx.SERVE_PATH,  # full HTTP handling at entry
            on_enter=NodeOp.block() if http_blocking else None,
        ),
        PathNode("memcached", "memcached", path_name=mc.READ_PATH),
        PathNode(
            "nginx_resp", "nginx",
            path_name=nginx.RESPOND_PATH,
            same_instance_as="nginx",
            on_leave=NodeOp.unblock("nginx") if http_blocking else None,
        ),
    )
    world.dispatcher.add_tree(tree)
    world.labels.update(
        scenario="two_tier",
        config=f"nginx={nginx_processes}p memcached={memcached_threads}t",
    )
    return world


# ---------------------------------------------------------------------------
# Fig 4(b) / Fig 6: 3-tier NGINX -> memcached -> MongoDB
# ---------------------------------------------------------------------------

def three_tier(
    nginx_processes: int = 8,
    memcached_threads: int = 2,
    cache_hit: float = cal.THREE_TIER_CACHE_HIT,
    mongo_miss: float = 0.8,
    seed: int = 0,
    realism: Optional[RealismConfig] = None,
    network: Optional[NetworkFabric] = None,
    client_connections: int = cal.WRK2_CONNECTIONS,
) -> World:
    """The 3-tier application of Fig 4(b).

    On a memcached hit the request returns directly; on a miss, NGINX
    queries MongoDB and — write-allocate — stores the value back into
    memcached before responding (SSIV-A). The miss path's MongoDB disk
    reads make the application disk-bound. *cache_hit* is the memcached
    hit ratio; *mongo_miss* the probability a MongoDB query misses its
    buffer cache and pays a disk read (the probabilistic execution path
    of SSIII-B).
    """
    if not 0.0 <= cache_hit <= 1.0:
        raise ValueError(f"cache_hit must be in [0,1], got {cache_hit!r}")
    world = new_world(network, seed, realism)
    add_client_machine(world)
    _server(world)
    nginx.make_nginx(world, "server0", "nginx0", processes=nginx_processes)
    mc.make_memcached(world, "server0", "memcached0", threads=memcached_threads)
    mongo.make_mongodb(
        world, "server0", "mongodb0", miss_probability=mongo_miss
    )
    make_netproc(world, "server0")
    world.deployment.set_pool("nginx", client_connections)
    world.deployment.set_pool("memcached", 16)
    world.deployment.set_pool("mongodb", 16)

    hit_tree = PathTree("three_tier_hit")
    hit_tree.chain(
        PathNode(
            "nginx", "nginx",
            path_name=nginx.SERVE_PATH, on_enter=NodeOp.block(),
        ),
        PathNode("memcached", "memcached", path_name=mc.READ_PATH),
        PathNode(
            "nginx_resp", "nginx",
            path_name=nginx.RESPOND_PATH,
            same_instance_as="nginx",
            on_leave=NodeOp.unblock("nginx"),
        ),
    )
    miss_tree = PathTree("three_tier_miss")
    miss_tree.chain(
        PathNode(
            "nginx", "nginx",
            path_name=nginx.SERVE_PATH, on_enter=NodeOp.block(),
        ),
        PathNode("memcached", "memcached", path_name=mc.READ_PATH),
        PathNode("mongodb", "mongodb"),
        PathNode(
            "memcached_write", "memcached",
            path_name=mc.WRITE_PATH,
            same_instance_as="memcached",
        ),
        PathNode(
            "nginx_resp", "nginx",
            path_name=nginx.RESPOND_PATH,
            same_instance_as="nginx",
            on_leave=NodeOp.unblock("nginx"),
        ),
    )
    world.dispatcher.add_tree(hit_tree, probability=cache_hit)
    world.dispatcher.add_tree(miss_tree, probability=1.0 - cache_hit)
    world.labels.update(
        scenario="three_tier",
        config=(
            f"nginx={nginx_processes}p memcached={memcached_threads}t "
            f"hit={cache_hit}"
        ),
    )
    return world


# ---------------------------------------------------------------------------
# Fig 7 / Fig 8: load balancing
# ---------------------------------------------------------------------------

def load_balanced(
    scale_out: int = 4,
    proxy_processes: int = 8,
    interrupt_cores: int = cal.NETPROC_DEFAULT_CORES,
    seed: int = 0,
    realism: Optional[RealismConfig] = None,
    network: Optional[NetworkFabric] = None,
    client_connections: int = cal.WRK2_CONNECTIONS,
    kernel_bypass: bool = False,
) -> World:
    """NGINX proxy round-robining over *scale_out* single-core NGINX
    webservers (Fig 7). All instances share one server whose interrupt
    cores are the contended resource at high scale-out (SSIV-B).
    """
    if scale_out < 1:
        raise ValueError(f"scale_out must be >= 1, got {scale_out}")
    world = new_world(network, seed, realism)
    add_client_machine(world)
    _server(world)
    nginx.make_nginx(world, "server0", "proxy0", processes=proxy_processes)
    for i in range(scale_out):
        nginx.make_nginx(
            world, "server0", f"web{i}", processes=1, tier="webserver"
        )
    world.deployment.set_pool("nginx", client_connections)
    world.deployment.set_pool("webserver", 8)
    if interrupt_cores > 0:
        make_netproc(
            world, "server0", cores=interrupt_cores,
            kernel_bypass=kernel_bypass,
        )

    tree = PathTree("load_balanced", response_bytes=cal.FANOUT_PAGE_BYTES)
    tree.chain(
        PathNode(
            "proxy", "nginx",
            path_name=nginx.PROXY_PATH, on_enter=NodeOp.block(),
        ),
        PathNode(
            "web", "webserver",
            path_name=nginx.SERVE_PATH,
            request_bytes=cal.FANOUT_PAGE_BYTES,
        ),
        PathNode(
            "proxy_resp", "nginx",
            path_name=nginx.RESPOND_PATH,
            same_instance_as="proxy",
            on_leave=NodeOp.unblock("proxy"),
        ),
    )
    world.dispatcher.add_tree(tree)
    world.labels.update(scenario="load_balanced", config=f"scale_out={scale_out}")
    return world


# ---------------------------------------------------------------------------
# Fig 9 / Fig 10: request fanout
# ---------------------------------------------------------------------------

def fanout(
    fanout_factor: int = 4,
    proxy_processes: int = 8,
    interrupt_cores: int = cal.NETPROC_DEFAULT_CORES,
    seed: int = 0,
    realism: Optional[RealismConfig] = None,
    network: Optional[NetworkFabric] = None,
    client_connections: int = cal.WRK2_CONNECTIONS,
) -> World:
    """NGINX proxy fanning every request out to *fanout_factor* leaf
    NGINX servers; the response returns only after ALL leaves answered
    (Fig 9). Each leaf gets 1 core and 1 thread; 4 cores are dedicated
    to network interrupts (SSIV-B).
    """
    if fanout_factor < 1:
        raise ValueError(f"fanout_factor must be >= 1, got {fanout_factor}")
    world = new_world(network, seed, realism)
    add_client_machine(world)
    _server(world)
    nginx.make_nginx(world, "server0", "proxy0", processes=proxy_processes)
    for i in range(fanout_factor):
        nginx.make_nginx(
            world, "server0", f"leaf{i}", processes=1, tier=f"leaf{i}"
        )
    world.deployment.set_pool("nginx", client_connections)
    make_netproc(world, "server0", cores=interrupt_cores)

    tree = PathTree("fanout", response_bytes=cal.FANOUT_PAGE_BYTES)
    tree.add_node(
        PathNode(
            "proxy", "nginx",
            path_name=nginx.PROXY_PATH, on_enter=NodeOp.block(),
        )
    )
    for i in range(fanout_factor):
        tree.add_node(
            PathNode(
                f"leaf{i}", f"leaf{i}",
                path_name=nginx.SERVE_PATH,
                request_bytes=cal.FANOUT_PAGE_BYTES,
            )
        )
        tree.add_edge("proxy", f"leaf{i}")
    tree.add_node(
        PathNode(
            "join", "nginx",
            path_name=nginx.RESPOND_PATH,
            same_instance_as="proxy",
            on_leave=NodeOp.unblock("proxy"),
        )
    )
    for i in range(fanout_factor):
        tree.add_edge(f"leaf{i}", "join")
    world.dispatcher.add_tree(tree)
    world.labels.update(scenario="fanout", config=f"fanout={fanout_factor}")
    return world


# ---------------------------------------------------------------------------
# Fig 12(a): Thrift echo RPC
# ---------------------------------------------------------------------------

def thrift_echo(
    threads: int = 1,
    seed: int = 0,
    realism: Optional[RealismConfig] = None,
    network: Optional[NetworkFabric] = None,
    client_connections: int = 64,
) -> World:
    """A bare Thrift client/server pair: the server answers each RPC
    with "Hello World" (SSIV-C)."""
    world = new_world(network, seed, realism)
    add_client_machine(world)
    _server(world)
    thrift.make_thrift(world, "server0", "thrift0", threads=threads)
    make_netproc(world, "server0")
    world.deployment.set_pool("thrift", client_connections)

    tree = PathTree("thrift_echo")
    tree.chain(PathNode("rpc", "thrift", path_name=thrift.RPC_PATH))
    world.dispatcher.add_tree(tree)
    world.labels.update(scenario="thrift_echo", config=f"threads={threads}")
    return world


# ---------------------------------------------------------------------------
# Fig 11 / Fig 12(b): Social Network
# ---------------------------------------------------------------------------

def social_network(
    seed: int = 0,
    realism: Optional[RealismConfig] = None,
    network: Optional[NetworkFabric] = None,
    client_connections: int = cal.WRK2_CONNECTIONS,
    frontend_threads: int = 8,
    service_threads: int = 4,
) -> World:
    """The social network of Fig 11, serving the "retrieve a post"
    request (SSIV-D): the Thrift frontend queries the User and Post
    services in parallel, synchronises their answers, extracts embedded
    media via the Media service, composes the response, and returns it.
    Every business service is backed by its own memcached + MongoDB
    pair. All cross-microservice communication uses Thrift.
    """
    world = new_world(network, seed, realism)
    add_client_machine(world)
    machines = {
        "frontend": _server(world, "frontend0", cores=16),
        "user": _server(world, "user0", cores=16),
        "post": _server(world, "post0", cores=16),
        "media": _server(world, "media0", cores=16),
    }
    thrift.make_thrift(
        world, "frontend0", "frontend", threads=frontend_threads,
        tier="frontend",
    )
    for svc in ("user", "post", "media"):
        thrift.make_thrift(
            world, f"{svc}0", f"{svc}_service", threads=service_threads,
            tier=f"{svc}_service",
        )
        mc.make_memcached(
            world, f"{svc}0", f"{svc}_mc", threads=2, tier=f"{svc}_memcached"
        )
        mongo.make_mongodb(
            world, f"{svc}0", f"{svc}_mongo", cores=2, threads=8,
            tier=f"{svc}_mongodb", miss_probability=0.3,
        )
    for machine_name in ("frontend0", "user0", "post0", "media0"):
        make_netproc(world, machine_name)
    world.deployment.set_pool("frontend", client_connections)

    tree = PathTree("social_network_read_post")
    tree.add_node(
        PathNode(
            "frontend", "frontend",
            path_name=thrift.RPC_PATH, on_enter=NodeOp.block(),
        )
    )
    # User and Post branches run in parallel (fan-out from frontend).
    for svc in ("user", "post"):
        tree.add_node(
            PathNode(f"{svc}_svc", f"{svc}_service", path_name=thrift.LOGIC_PATH)
        )
        tree.add_node(
            PathNode(f"{svc}_mc", f"{svc}_memcached", path_name=mc.READ_PATH)
        )
        tree.add_node(PathNode(f"{svc}_mongo", f"{svc}_mongodb"))
        tree.add_node(
            PathNode(
                f"{svc}_resp", f"{svc}_service",
                path_name=thrift.RESPOND_PATH,
                same_instance_as=f"{svc}_svc",
            )
        )
        tree.add_edge("frontend", f"{svc}_svc")
        tree.add_edge(f"{svc}_svc", f"{svc}_mc")
        tree.add_edge(f"{svc}_mc", f"{svc}_mongo")
        tree.add_edge(f"{svc}_mongo", f"{svc}_resp")
    # Synchronise user + post at the frontend, then the media branch.
    tree.add_node(
        PathNode(
            "frontend_join", "frontend",
            path_name=thrift.RESPOND_PATH, same_instance_as="frontend",
        )
    )
    tree.add_edge("user_resp", "frontend_join")
    tree.add_edge("post_resp", "frontend_join")
    tree.add_node(
        PathNode("media_svc", "media_service", path_name=thrift.LOGIC_PATH)
    )
    tree.add_node(
        PathNode("media_mc", "media_memcached", path_name=mc.READ_PATH)
    )
    tree.add_node(PathNode("media_mongo", "media_mongodb"))
    tree.add_node(
        PathNode(
            "media_resp", "media_service",
            path_name=thrift.RESPOND_PATH, same_instance_as="media_svc",
        )
    )
    tree.add_edge("frontend_join", "media_svc")
    tree.add_edge("media_svc", "media_mc")
    tree.add_edge("media_mc", "media_mongo")
    tree.add_edge("media_mongo", "media_resp")
    tree.add_node(
        PathNode(
            "frontend_respond", "frontend",
            path_name=thrift.RPC_PATH,
            same_instance_as="frontend",
            on_leave=NodeOp.unblock("frontend"),
        )
    )
    tree.add_edge("media_resp", "frontend_respond")
    world.dispatcher.add_tree(tree)
    world.labels.update(scenario="social_network", config="read_post")
    return world


# ---------------------------------------------------------------------------
# Fig 13: single-tier worlds for the BigHouse comparison
# ---------------------------------------------------------------------------

def single_nginx(
    processes: int = 1,
    seed: int = 0,
    realism: Optional[RealismConfig] = None,
    network: Optional[NetworkFabric] = None,
    client_connections: int = cal.WRK2_CONNECTIONS,
    interrupt_cores: int = 8,
) -> World:
    """One NGINX webserver straight behind the client (SSIV-E).

    The interrupt service gets ample cores by default so the tier under
    study — not network processing — is the bottleneck, as in the
    paper's single-tier comparison.
    """
    world = new_world(network, seed, realism)
    add_client_machine(world)
    _server(world)
    nginx.make_nginx(world, "server0", "nginx0", processes=processes)
    make_netproc(world, "server0", cores=interrupt_cores)
    world.deployment.set_pool("nginx", client_connections)
    tree = PathTree("single_nginx", response_bytes=cal.FANOUT_PAGE_BYTES)
    tree.chain(
        PathNode(
            "nginx", "nginx",
            path_name=nginx.SERVE_PATH,
            on_enter=NodeOp.block(), on_leave=NodeOp.unblock(),
        )
    )
    world.dispatcher.add_tree(tree)
    world.labels.update(scenario="single_nginx", config=f"{processes}p")
    return world


def single_memcached(
    threads: int = 4,
    seed: int = 0,
    realism: Optional[RealismConfig] = None,
    network: Optional[NetworkFabric] = None,
    client_connections: int = cal.WRK2_CONNECTIONS,
    interrupt_cores: int = 8,
) -> World:
    """One memcached instance straight behind the client (SSIV-E).

    Ample interrupt cores by default: a 4-thread memcached clears
    >200 kQPS, so the Fig 13 comparison needs the netproc out of the
    way (the paper's 4-interrupt-core setup belongs to Fig 8).
    """
    world = new_world(network, seed, realism)
    add_client_machine(world)
    _server(world)
    mc.make_memcached(world, "server0", "memcached0", threads=threads)
    make_netproc(world, "server0", cores=interrupt_cores)
    world.deployment.set_pool("memcached", client_connections)
    tree = PathTree("single_memcached")
    tree.chain(PathNode("memcached", "memcached", path_name=mc.READ_PATH))
    world.dispatcher.add_tree(tree)
    world.labels.update(scenario="single_memcached", config=f"{threads}t")
    return world


def default_value_sizes() -> Exponential:
    """The exponentially distributed request value sizes of SSIV-A."""
    return Exponential(cal.DEFAULT_VALUE_BYTES)


# Sharded runners ------------------------------------------------------
#
# Opt-in hooks read by :func:`repro.experiments.loadsweep.measure_at_load`
# when called with ``shards > 1``: each returns the builder's sharded
# runner, whose signature is its capability set. Both route through
# the generic world adapter (:func:`repro.shard.adapter.sharded_load_point`),
# which replicates the full world per shard and runs the real
# dispatcher behind ShardHost mailboxes — no hand re-expression of
# dispatch logic per topology.


def _adapter_runner(build_world):
    """The generic shard adapter bound to *build_world*, imported late
    so ``repro.shard`` stays an optional layer of the import graph."""
    from ..shard.adapter import sharded_load_point

    return functools.partial(sharded_load_point, build_world)


two_tier.sharded_runner = functools.partial(_adapter_runner, two_tier)
social_network.sharded_runner = functools.partial(
    _adapter_runner, social_network
)
