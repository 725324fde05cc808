"""Generic shard-side world adapter: any registered topology under
``--shards``.

:class:`ShardedDispatcher` runs the real
:class:`~repro.topology.Dispatcher` / ``Microservice`` wiring behind
ShardHost mailboxes, so any builder's world shards through
:func:`run_world_sharded` (or :func:`sharded_load_point` for a load
point) — no world needs a hand re-expression of its dispatch logic,
and :func:`validate_world_shardable` is the one gate on which worlds
can.

The scheme — **full-world replication with machine ownership**:

* every shard builds the *complete* world from the same builder,
  kwargs, and derived root seed. Idle replicas cost nothing (no
  component schedules events at init), and replication means every
  shard can resolve any instance, pool, or connection by name.
  Named RNG streams come from the shared seed, so a stream yields the
  same values on every replica — placement decides *where* a stream
  is consumed, never *what* it yields.
* every simulated machine is owned by exactly one shard (the
  :func:`~repro.shard.partition.plan_shards` assignment). All
  decisions attached to a machine — instance resolution, pool
  checkout, sequence stamping, message-size draws, the tx netproc and
  the wire-delay draw — execute on the owning shard, on per-machine
  RNG streams (``shard-dispatch/{machine}`` / ``shard-net/{machine}``)
  so the draw order is shard-count invariant. Delivery-side work —
  the rx netproc, in-order delivery, fan-in counting, node ops, and
  the service visit itself — executes on the shard owning the target
  instance's machine.
* a node visit crossing machines becomes a ``ShardMessage`` stamped
  ``now + wire_delay >= now + lookahead`` (the fabric's propagation
  floor *is* the plan's lookahead, so the conservative guarantee
  holds by construction). Same-machine hops short-circuit through
  loopback exactly like the vanilla dispatcher.

Contracts (asserted for the two-tier and Social Network worlds by
``tests/shard/test_adapter_identity.py``, for every ``repro.apps``
builder by ``tests/shard/test_plumbing.py``, and for the fan-out world
by ``tests/shard/test_fanout_equivalence.py`` and, at 500 leaves,
``benchmarks/bench_shard.py``):

* ``shards=1`` (or any planner fallback) runs the untouched vanilla
  :func:`~repro.experiments.loadsweep.run_world` and is bit-identical
  to it;
* under a draw-free fabric, results are bit-identical across shard
  counts (the adapter's event order does not depend on N);
* results additionally match the vanilla engine bit-for-bit except
  when two messages reach the *same* queue (a netproc or instance) at
  the *same* timestamp: vanilla breaks such ties in global
  event-scheduling order, which a shard cannot reconstruct, so the
  adapter breaks them in its own shard-count-invariant order. Under a
  draw-free fabric at moderate load the match is exact for the
  two-tier, three-tier, fan-out, Thrift echo, Social Network, single
  NGINX and single memcached worlds and the Fig 14 fan-out cluster
  (``TestMeasureAtLoad::test_every_app_builder_shards_or_refuses``
  pins each at one load). ``synthetic_graph`` at 500 QPS already hits
  a tie, and under heavy contention a handful of requests per
  thousand do: their queueing resolves in the other order — same
  distribution, same conservation, different samples.
  (The fan-in bookkeeping also moves: the adapter ships one
  cross-machine message per parent and enters the child at the
  maximum over parents of leave time plus that parent's hop delay,
  where vanilla counts at the parents and enters at the *last*
  parent's leave time plus its hop delay. The two instants coincide
  on a draw-free fabric; under a stochastic one a parent that leaves
  earlier can still arrive later.);
* supervision, barrier-replay recovery, and the merged conservation
  audit work unchanged — the hosts here are ordinary
  ``ShardHost`` subclasses.

Telemetry ships home at ``finalize()``: each shard returns the spans
and events of the requests it touched (only when tracing is on — a
trace-off run never pays the shipping cost), the root shard returns
the vanilla client payload and SLO summary, and
:func:`run_world_sharded` merges everything into the same
:class:`~repro.experiments.loadsweep.WorldRun` the vanilla core
returns — one point builder per result type serves both.

Not everything can run under the adapter; unsupported shapes raise
:class:`~repro.errors.ShardingError` at build time rather than
diverging silently: multi-instance services (placement would need a
cross-shard balancer), resilience policies (retry/hedge timers would
race the window barrier), ``connection_of`` ops whose target node
lives on a different machine, and in-simulation fault plans.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..engine import PRIORITY_ARRIVAL
from ..errors import ShardingError
from ..experiments.loadsweep import (
    WorldRun,
    client_payload,
    run_world,
    start_slo_monitor,
    sweep_point,
)
from ..experiments.options import implied_trace
from ..service import Job, Request
from ..service.job import OUTCOME_OK
from ..telemetry.tracing import Span, SpanEvent, TraceConfig, trace_requested
from ..topology.dispatcher import Dispatcher, _RequestGroup
from ..topology.path_tree import PathNode, PathTree
from ..workload import OpenLoopClient
from .partition import ShardPlan, plan_shards
from .sync import ShardHost
from .worker import run_sharded

__all__ = [
    "ShardedDispatcher",
    "WorldRun",
    "WorldShardHost",
    "build_world_shard_host",
    "run_world_sharded",
    "sharded_load_point",
    "validate_world_shardable",
    "world_shard_specs",
]


def _owned_tiers(deployment, assignments: Dict[str, int],
                 shard_id: int) -> Dict[str, list]:
    """The scrape-tier grouping restricted to machines this shard
    owns — the sharded counterpart of
    :func:`repro.telemetry.scrape.scrape_tiers`, so merged sharded
    timelines use the same series names as a vanilla run."""
    tiers: Dict[str, list] = {}
    for service in deployment.services:
        owned = [
            inst for inst in deployment.instances(service)
            if assignments.get(inst.machine_name) == shard_id
        ]
        if owned:
            tiers[service] = owned
    for machine, proc in deployment.netprocs.items():
        if assignments.get(machine) == shard_id:
            tiers[proc.name] = [proc]
    return tiers


def _iter_trees(dispatcher: Dispatcher) -> List[PathTree]:
    """Every registered tree, deduped by name."""
    seen: Dict[str, PathTree] = {}
    for tree, _weight in dispatcher._trees:
        seen.setdefault(tree.name, tree)
    for tree in dispatcher._trees_by_type.values():
        seen.setdefault(tree.name, tree)
    for tree in dispatcher._trees_by_name.values():
        seen.setdefault(tree.name, tree)
    return list(seen.values())


def validate_world_shardable(world) -> Dict[Tuple[str, str], str]:
    """Check *world* fits the adapter's ownership rules.

    Returns the ``(tree_name, node_name) -> machine_name`` ownership
    map; raises :class:`~repro.errors.ShardingError` describing the
    first unsupported shape found.
    """
    deployment = world.deployment
    node_machine: Dict[Tuple[str, str], str] = {}
    for tree in _iter_trees(world.dispatcher):
        for node in tree.nodes:
            instances = deployment.instances(node.service)
            if len(instances) != 1:
                raise ShardingError(
                    f"service {node.service!r} has {len(instances)} "
                    f"instances; the shard adapter requires "
                    f"single-instance services (a cross-shard load "
                    f"balancer would split its rotation state)"
                )
            node_machine[(tree.name, node.name)] = instances[0].machine_name
        for node in tree.nodes:
            mine = node_machine[(tree.name, node.name)]
            for op in (node.on_enter, node.on_leave):
                if op is not None and op.connection_of is not None:
                    ref = node_machine.get((tree.name, op.connection_of))
                    if ref != mine:
                        raise ShardingError(
                            f"node {node.name!r} carries a "
                            f"connection_of={op.connection_of!r} op but "
                            f"that node runs on machine {ref!r}, not "
                            f"{mine!r}: cross-machine block/unblock "
                            f"targets are not shardable"
                        )
    return node_machine


class _AdapterState:
    """Per-request bookkeeping on one shard (the sharded counterpart
    of the dispatcher's ``_RequestState``; exposes the ``node_conn`` /
    ``request`` surface the inherited ``_apply_op`` reads)."""

    __slots__ = (
        "request", "tree", "node_instance", "node_conn", "node_conn_key",
        "arrivals", "my_remaining", "used_conns", "spans", "events",
        "traced",
    )

    def __init__(self, request: Request, tree: PathTree,
                 my_remaining: int, traced: bool) -> None:
        self.request = request
        self.tree = tree
        self.node_instance: Dict[str, Any] = {}
        self.node_conn: Dict[str, Any] = {}
        self.node_conn_key: Dict[str, Optional[tuple]] = {}
        self.arrivals: Dict[str, int] = {}
        self.my_remaining = my_remaining
        self.used_conns: List[Any] = []
        self.traced = traced
        self.spans: Dict[str, Span] = {}
        self.events: List[tuple] = []


class ShardedDispatcher(Dispatcher):
    """The vanilla dispatcher with cross-machine legs routed through a
    :class:`~repro.shard.sync.ShardHost` mailbox.

    Constructed *from* an already-built world: it adopts the world's
    registered trees and replaces the world's dispatcher. Requests are
    only ever submitted on the root shard (where the client machine
    lives); every other shard sees them as inbound ``enter`` messages.
    """

    def __init__(self, host: "WorldShardHost", world, assignments: Dict[str, int],
                 span_breakdown: bool = True) -> None:
        super().__init__(world.sim, world.deployment,
                         network=world.cluster.network)
        source = world.dispatcher
        self._trees = list(source._trees)
        self._trees_by_type = dict(source._trees_by_type)
        self._trees_by_name = dict(source._trees_by_name)
        self._host = host
        self._assignments = dict(assignments)
        self._span_breakdown = span_breakdown
        self._node_machine = validate_world_shardable(world)
        #: tree name -> how many of its nodes this shard executes;
        #: drives per-request state teardown.
        self._my_node_count: Dict[str, int] = {}
        for (tree_name, _node), machine in self._node_machine.items():
            if self._assignments[machine] == host.shard_id:
                self._my_node_count[tree_name] = (
                    self._my_node_count.get(tree_name, 0) + 1
                )
        self._trees_by_tree_name = {
            tree.name: tree for tree in _iter_trees(self)
        }
        #: The adapter refuses scaling and instance faults, so the
        #: instance set is fixed for the run and names resolve once.
        self._instances_by_name = {
            inst.name: inst for inst in world.deployment.all_instances
        }
        self._states: Dict[int, _AdapterState] = {}
        self._groups: Dict[int, _RequestGroup] = {}
        #: request_id -> (spans, events) of completed requests this
        #: shard touched; shipped home in ``finalize``. Never written
        #: when tracing is off.
        self._trace_shadow: Dict[int, Tuple[list, list]] = {}
        self._machine_rngs: Dict[str, Any] = {}
        self._machine_nets: Dict[str, Any] = {}
        #: ``id(pool) -> {id(conn): index}`` so a checked-out
        #: connection can be named to another shard by a picklable
        #: ``(pool_upstream, instance, index)`` key.
        self._conn_indices: Dict[int, Dict[int, int]] = {}

    # Per-machine decision contexts ------------------------------------

    def _machine_rng(self, machine: str):
        rng = self._machine_rngs.get(machine)
        if rng is None:
            rng = self.sim.random.stream(f"shard-dispatch/{machine}")
            self._machine_rngs[machine] = rng
        return rng

    def _machine_net(self, machine: str):
        net = self._machine_nets.get(machine)
        if net is None:
            net = self.network.delay_sampler(
                self.sim.random.stream(f"shard-net/{machine}")
            )
            self._machine_nets[machine] = net
        return net

    def _shard_of(self, machine: str) -> int:
        try:
            return self._assignments[machine]
        except KeyError:
            raise ShardingError(
                f"machine {machine!r} is not in the shard plan "
                f"(known: {sorted(self._assignments)})"
            )

    # Connection naming ------------------------------------------------

    def _checkout(self, state: _AdapterState, upstream_key: str, instance):
        pool = self.deployment.pool_between(upstream_key, instance)
        if pool.policy != "round_robin":
            raise ShardingError(
                f"pool {upstream_key!r}->{instance.name!r} uses policy "
                f"{pool.policy!r}; only round_robin checkout is "
                f"shard-count invariant (least_outstanding reads "
                f"counters that are split across shards)"
            )
        conn = pool.checkout()
        conn.outstanding += 1
        state.used_conns.append(conn)
        index = self._conn_index(pool, conn)
        return conn, (upstream_key, instance.name, index)

    def _conn_index(self, pool, conn) -> int:
        table = self._conn_indices.get(id(pool))
        if table is None:
            table = {id(c): i for i, c in enumerate(pool.connections)}
            self._conn_indices[id(pool)] = table
        return table[id(conn)]

    def _resolve_conn_key(self, key: Optional[tuple]):
        """A ``(pool_upstream, instance, index)`` key -> this replica's
        connection object (pools are created lazily and identically on
        every replica, so the index is globally meaningful)."""
        if key is None:
            return None
        upstream_key, instance_name, index = key
        instance = self._instances_by_name[instance_name]
        pool = self.deployment.pool_between(upstream_key, instance)
        return pool.connections[index]

    # Submit (root shard only) -----------------------------------------

    def submit(self, request: Request, on_complete=None,
               client_name: str = "client", client_machine: str = "client",
               policy=None) -> None:
        if policy is not None:
            raise ShardingError(
                "resilience policies (retry/hedge/timeout) are not "
                "supported under the shard adapter yet — their timers "
                "would race the conservative window barrier"
            )
        self.requests_submitted += 1
        group = _RequestGroup(request, None, on_complete,
                              client_name, client_machine)
        if self._tracer is not None:
            group.trace = self._tracer.start_trace(request)
            if group.trace is not None:
                request.metadata["trace"] = group.trace
        self._groups[request.request_id] = group
        tree = self._pick_tree(request)
        request.attempts += 1
        self.attempts_launched += 1
        state = self._ensure_state(request.request_id, tree.name,
                                   request=request,
                                   traced=group.trace is not None)
        for root in tree.roots:
            self._send_enter(state, root, src_machine=client_machine,
                             upstream_key=client_name,
                             parent_conn=None, parent_conn_key=None)

    # Decision side: resolve + ship one node entry ---------------------

    def _send_enter(self, state: _AdapterState, node: PathNode,
                    src_machine: str, upstream_key: str,
                    parent_conn, parent_conn_key) -> None:
        request = state.request
        tree = state.tree
        if node.same_instance_as is not None:
            # Single-instance services make the pin statically
            # resolvable; the connection rides along from the parent
            # (no checkout), exactly like the vanilla dispatcher.
            conn, conn_key = parent_conn, parent_conn_key
        else:
            conn = conn_key = None  # checked out below, once we know the target
        instance = self.deployment.instances(node.service)[0]
        if node.same_instance_as is None:
            conn, conn_key = self._checkout(state, upstream_key, instance)
        rng = self._machine_rng(src_machine)
        size = node.message_bytes(request.size_bytes, rng)
        seq = conn.next_seq(instance.name) if conn is not None else None
        payload = (
            request.request_id, request.request_type, request.created_at,
            request.size_bytes, state.traced, tree.name, node.name,
            upstream_key, conn_key, seq, size, self.sim.now,
        )
        self._ship(request, src_machine, instance.machine_name,
                   size, "enter", payload)

    def _ship(self, request: Request, src_machine: str, dst_machine: str,
              size_bytes: float, kind: str, payload: tuple) -> None:
        """Route one message; the sharded counterpart of ``_hop``.

        Same-machine legs short-circuit through loopback (one
        transient event, no netprocs — vanilla semantics). Cross-
        machine legs pass through the sender's netproc, draw the wire
        delay on the sender machine's stream, and then either schedule
        locally (receiver co-sharded) or cross the mailbox; the
        receiver-side netproc runs at delivery in :meth:`_arrive`.
        """
        if self.network.is_partitioned(src_machine, dst_machine):
            raise ShardingError(
                f"link {src_machine}->{dst_machine} is partitioned: "
                f"in-simulation network faults are not supported under "
                f"the shard adapter (run the fault plan with shards=1)"
            )
        net = self._machine_net(src_machine)
        if src_machine == dst_machine:
            # Loopback: one transient event, no netprocs on either
            # side (wire=False skips the receiver's netproc too).
            delay = net.delay(src_machine, dst_machine, size_bytes)
            self.sim.schedule_transient(
                delay, self._arrive, kind, payload, False,
                priority=PRIORITY_ARRIVAL,
            )
            return

        def over_wire() -> None:
            delay = net.delay(src_machine, dst_machine, size_bytes)
            dst_shard = self._shard_of(dst_machine)
            if dst_shard == self._host.shard_id:
                self.sim.schedule_transient(
                    delay, self._arrive, kind, payload, True,
                    priority=PRIORITY_ARRIVAL,
                )
            else:
                self._host.send(dst_shard, self.sim.now + delay,
                                kind, payload)

        tx_proc = self.deployment.netproc(src_machine)
        if tx_proc is None:
            over_wire()
            return
        tx_job = Job(request, size_bytes=size_bytes)
        tx_job.on_complete = lambda _j: over_wire()
        tx_job.on_discard = lambda _j: self._lost(src_machine, dst_machine)
        tx_proc.accept(tx_job)

    def _lost(self, src_machine: str, dst_machine: str) -> None:
        raise ShardingError(
            f"message {src_machine}->{dst_machine} was discarded by a "
            f"netproc: instance faults are not supported under the "
            f"shard adapter"
        )

    # Delivery side ----------------------------------------------------

    def _arrive(self, kind: str, payload: tuple, wire: bool = True) -> None:
        """Apply one delivered message on the owning shard (called
        both for loopback/co-sharded legs and, via the host's
        ``handle``, for mailbox messages). *wire=False* marks a
        same-machine loopback delivery, which bypasses the receiver's
        netproc exactly like the vanilla ``_hop``."""
        if kind == "enter":
            self._arrive_enter(payload, wire)
        elif kind == "response":
            self._arrive_response(payload, wire)
        else:
            raise ShardingError(f"unknown shard message kind {kind!r}")

    def _arrive_enter(self, payload: tuple, wire: bool) -> None:
        (rid, rtype, created_at, req_size, traced, tree_name, node_name,
         upstream_key, conn_key, seq, size, sent_at) = payload
        state = self._ensure_state(
            rid, tree_name, traced=traced,
            request_fields=(rtype, created_at, req_size),
        )
        tree = state.tree
        node = tree.node(node_name)
        instance = self.deployment.instances(node.service)[0]
        conn = self._resolve_conn_key(conn_key)

        def accept() -> None:
            self._accept_entry(state, node, instance, upstream_key,
                               conn, conn_key, size, sent_at)

        def deliver() -> None:
            if conn is not None:
                conn.deliver_in_order(instance.name, seq, accept)
            else:
                accept()

        rx_proc = (
            self.deployment.netproc(instance.machine_name) if wire else None
        )
        if rx_proc is None:
            deliver()
            return
        rx_job = Job(state.request, size_bytes=size)
        rx_job.on_complete = lambda _j: deliver()
        rx_job.on_discard = lambda _j: self._lost(
            upstream_key, instance.machine_name
        )
        rx_proc.accept(rx_job)

    def _accept_entry(self, state: _AdapterState, node: PathNode, instance,
                      upstream_key: str, conn, conn_key,
                      size: float, sent_at: float) -> None:
        arrived = state.arrivals.get(node.name, 0) + 1
        state.arrivals[node.name] = arrived
        if arrived < state.tree.fan_in(node.name):
            return  # fan-in not satisfied yet; this arrival only counts
        state.node_instance[node.name] = instance
        state.node_conn[node.name] = conn
        state.node_conn_key[node.name] = conn_key
        instance.pending_dispatch += 1
        job = Job(state.request, size_bytes=size, connection=conn)
        job.on_complete = lambda j, _n=node: self._leave_node_sharded(
            state, _n, j
        )
        job.on_fail = lambda j: self._lost(upstream_key, instance.machine_name)
        self._apply_op(node.on_enter, state, job)
        if state.traced:
            # ``enter`` is the decision-side send stamp carried in the
            # payload — the same instant the vanilla tracer records.
            state.spans[node.name] = Span(
                node.name, instance.name, node.service, 0, sent_at,
                upstream=upstream_key,
            )
        instance.accept(job, node.path_id, node.path_name)

    def _leave_node_sharded(self, state: _AdapterState, node: PathNode,
                            job: Job) -> None:
        instance = state.node_instance[node.name]
        instance.pending_dispatch -= 1
        self._apply_op(node.on_leave, state, job)
        if state.traced:
            span = state.spans.get(node.name)
            if span is not None:
                span.finish(self.sim.now, job=job,
                            breakdown=self._span_breakdown)
        children = state.tree.children(node.name)
        if not children:
            self._complete_sharded(state, node)
        else:
            conn = state.node_conn[node.name]
            conn_key = state.node_conn_key[node.name]
            for child in children:
                self._send_enter(
                    state, child, src_machine=instance.machine_name,
                    upstream_key=instance.name,
                    parent_conn=conn, parent_conn_key=conn_key,
                )
        state.my_remaining -= 1
        self._maybe_cleanup(state)

    def _complete_sharded(self, state: _AdapterState, last_node: PathNode) -> None:
        instance = state.node_instance[last_node.name]
        group = self._groups.get(state.request.request_id)
        client_machine = (
            group.client_machine if group is not None
            else self._host.client_machine
        )
        rng = self._machine_rng(instance.machine_name)
        response_size = state.tree.response_size(
            state.request.size_bytes, rng
        )
        if state.traced:
            state.events.append((self.sim.now, "response_sent",
                                 {"attempt": 0}))
        self._ship(state.request, instance.machine_name, client_machine,
                   response_size, "response",
                   (state.request.request_id, response_size))

    def _arrive_response(self, payload: tuple, wire: bool) -> None:
        rid, response_size = payload
        group = self._groups.get(rid)
        if group is None:
            raise ShardingError(
                f"shard {self._host.shard_id} received a response for "
                f"request {rid} but holds no group: responses must "
                f"arrive at the root shard"
            )
        rx_proc = (
            self.deployment.netproc(group.client_machine) if wire else None
        )
        if rx_proc is None:
            self._finish_request(rid)
            return
        rx_job = Job(group.request, size_bytes=response_size)
        rx_job.on_complete = lambda _j: self._finish_request(rid)
        rx_job.on_discard = lambda _j: self._lost(
            "response", group.client_machine
        )
        rx_proc.accept(rx_job)

    def _finish_request(self, rid: int) -> None:
        group = self._groups.pop(rid)
        state = self._states.get(rid)
        if state is not None:
            for conn in state.used_conns:
                conn.outstanding -= 1
            state.used_conns = []
        # The vanilla resolution path: stamps completed_at/outcome,
        # bumps counters, finishes the trace, notifies listeners, and
        # calls the client's on_complete (which records the latency).
        self._resolve(group, OUTCOME_OK)
        if state is not None:
            self._maybe_cleanup(state)

    # Request-state lifecycle ------------------------------------------

    def _ensure_state(self, rid: int, tree_name: str, *, traced: bool,
                      request: Optional[Request] = None,
                      request_fields: Optional[tuple] = None) -> _AdapterState:
        state = self._states.get(rid)
        if state is not None:
            return state
        tree = self._trees_by_tree_name[tree_name]
        if request is None:
            rtype, created_at, req_size = request_fields
            request = Request(created_at, request_type=rtype,
                              size_bytes=req_size)
            request.request_id = rid  # replica mirrors the root's id
            request.attempts = 1
        state = _AdapterState(
            request, tree,
            my_remaining=self._my_node_count.get(tree_name, 0),
            traced=traced and self._host.trace_active,
        )
        self._states[rid] = state
        return state

    def _maybe_cleanup(self, state: _AdapterState) -> None:
        rid = state.request.request_id
        if state.my_remaining > 0 or rid in self._groups:
            return
        if self._states.pop(rid, None) is None:
            return
        for conn in state.used_conns:
            conn.outstanding -= 1
        state.used_conns = []
        if state.traced and (state.spans or state.events):
            self._trace_shadow[rid] = (
                list(state.spans.values()), list(state.events)
            )

    def shadow_remaining(self) -> None:
        """Sweep still-in-flight requests' spans into the shadow at
        the end of the run (vanilla leaves their spans open too)."""
        for rid, state in self._states.items():
            if state.traced and (state.spans or state.events):
                self._trace_shadow[rid] = (
                    list(state.spans.values()), list(state.events)
                )


class WorldShardHost(ShardHost):
    """One shard of an adapter-run world.

    Builds the full world replica, swaps in a
    :class:`ShardedDispatcher`, and — on the root shard (wherever the
    client machine landed) — attaches the open-loop client, the
    optional tracer, and the optional SLO monitor. The client stops at
    the *duration* horizon, after *max_requests* arrivals, or at
    whichever comes first; with no horizon the shard runs until its
    queue drains. Everything else is inherited ShardHost mechanics, so
    supervision/replay and the conservation audit apply unchanged.
    """

    def __init__(self, *, shard_id: int, builder, world_kwargs: dict,
                 seed: int, assignments: Dict[str, int], lookahead: float,
                 qps: float, duration: Optional[float],
                 warmup: Optional[float],
                 max_requests: Optional[int] = None,
                 client_machine: str = "client", mix=None,
                 trace=False, slo=None,
                 scrape_interval: Optional[float] = None) -> None:
        world = builder(seed=seed, **world_kwargs)
        super().__init__(shard_id, world.sim, lookahead, end_time=duration)
        self.client_machine = client_machine
        self.is_root = assignments[client_machine] == shard_id
        self._warmup = warmup
        self.trace_active = trace_requested(trace)
        breakdown = (trace.breakdown
                     if isinstance(trace, TraceConfig) else True)
        self.dispatcher = ShardedDispatcher(
            self, world, assignments, span_breakdown=breakdown
        )
        world.dispatcher = self.dispatcher
        self.client = None
        self._slo_monitor = None
        if self.is_root:
            if self.trace_active:
                self.dispatcher.trace = trace if trace else True
            self.client = OpenLoopClient(
                world.sim, self.dispatcher, arrivals=qps, mix=mix,
                max_requests=max_requests, stop_at=duration,
                realism=world.realism,
            )
            self._slo_monitor = start_slo_monitor(
                self.client, slo, qps, duration=duration, warmup=warmup,
                max_requests=max_requests,
            )
            self.client.start()
        self._scraper = None
        if scrape_interval is not None:
            from ..telemetry.scrape import Scraper

            # Each shard scrapes only the tiers it owns (the replica's
            # other instances never execute, so their series would be
            # flat zeros); the root additionally scrapes the client.
            self._scraper = Scraper(
                world.sim,
                interval=scrape_interval,
                tiers=_owned_tiers(world.deployment, assignments, shard_id),
                client=self.client,
                stop_at=duration,
            ).start()

    def handle(self, message) -> None:
        self.dispatcher._arrive(message.kind, message.payload)

    def finalize(self) -> dict:
        base = super().finalize()
        dispatcher = self.dispatcher
        base["requests_submitted"] = dispatcher.requests_submitted
        if self._scraper is not None:
            base["scrape"] = {
                "interval": self._scraper.interval,
                "series": self._scraper.snapshot(),
            }
        if self.trace_active:
            dispatcher.shadow_remaining()
            base["trace_spans"] = {
                rid: (
                    [_span_tuple(span) for span in spans],
                    list(events),
                )
                for rid, (spans, events) in dispatcher._trace_shadow.items()
            }
        if not self.is_root:
            return base
        base.update(
            client_payload(self.client, self._warmup, self.end_time),
            in_flight=len(dispatcher._groups),
        )
        if self._slo_monitor is not None:
            base["slo"] = self._slo_monitor.summary()
        if self.trace_active and dispatcher.tracer is not None:
            base["traces"] = list(dispatcher.tracer.traces)
        return base


def _span_tuple(span: Span) -> tuple:
    return (span.node, span.instance, span.service, span.attempt,
            span.enter, span.leave, span.status, span.network,
            span.queueing, span.service_time, span.upstream)


def _span_from_tuple(fields: tuple) -> Span:
    (node, instance, service, attempt, enter, leave, status,
     network, queueing, service_time, upstream) = fields
    span = Span(node, instance, service, attempt, enter,
                upstream=upstream)
    span.leave = leave
    span.status = status
    span.network = network
    span.queueing = queueing
    span.service_time = service_time
    return span


def build_world_shard_host(**kwargs) -> WorldShardHost:
    """Construct one adapter shard inside a worker process.

    ``builder`` arrives as the topology builder *function* (picklable
    by module reference); everything else is the host's kwargs.
    """
    return WorldShardHost(**kwargs)


def world_shard_specs(plan: ShardPlan, **host_kwargs) -> Tuple[list, dict]:
    """The :func:`~repro.shard.worker.run_sharded` inputs for one
    :class:`WorldShardHost` per planned shard: the host specs, indexed
    by shard id, and the all-pairs lookahead edge map. *host_kwargs*
    are the hosts' shared keyword arguments."""
    common = dict(host_kwargs, assignments=dict(plan.assignments),
                  lookahead=plan.lookahead)
    specs = [
        (build_world_shard_host, dict(common, shard_id=shard))
        for shard in range(plan.num_shards)
    ]
    edges = {
        (i, j): plan.lookahead
        for i in range(plan.num_shards)
        for j in range(plan.num_shards)
        if i != j
    }
    return specs, edges


def _merge_traces(results: List[dict], root: dict) -> None:
    """Stitch per-shard span shadows into the root's Trace objects."""
    traces = root.get("traces") or []
    by_rid = {trace.request_id: trace for trace in traces}
    for result in results:
        for rid, (span_tuples, events) in result.get("trace_spans", {}).items():
            trace = by_rid.get(rid)
            if trace is None:
                continue
            trace.spans.extend(
                _span_from_tuple(fields) for fields in span_tuples
            )
            trace.events.extend(
                SpanEvent(t, name, dict(attrs)) for t, name, attrs in events
            )
    for trace in traces:
        trace.spans.sort(key=lambda s: (s.enter, s.attempt, s.node))
        trace.events.sort(key=lambda e: (e.t, e.name))


def _shard_chaos(fault_plan, plan: ShardPlan) -> Optional[dict]:
    """``FaultPlan`` -> the coordinator's chaos schedule.

    Only execution-layer (``shard_kill`` / ``shard_hang``) faults are
    meaningful under shards; anything else in the plan is a loud error
    — in-simulation faults are not supported by the adapter, and
    silently dropping them would fake a chaos result.
    """
    if fault_plan is None:
        return None
    from ..faults.plan import SHARD_HANG, SHARD_KILL

    chaos: Dict[int, List[Tuple[int, str]]] = {}
    for fault in fault_plan.sorted():
        if fault.kind not in (SHARD_KILL, SHARD_HANG):
            raise ShardingError(
                f"fault kind {fault.kind!r} targets the simulated "
                f"world; the shard adapter only supports the "
                f"execution-layer kinds shard_kill/shard_hang (run "
                f"in-simulation fault plans with shards=1)"
            )
        plan.validate_shard(fault.shard)
        action = "kill" if fault.kind == SHARD_KILL else "hang"
        chaos.setdefault(int(fault.at), []).append((fault.shard, action))
    return chaos


def _shard_sync_counters(coordinator, num_shards: int) -> dict:
    """A finished run's coordinator counters, in the ``shard_sync``
    shape that :func:`repro.experiments.loadsweep.shard_sync_manifest_summary`
    aggregates into run manifests."""
    recovery = getattr(coordinator, "recovery", None) or {}
    return {
        "shards": num_shards,
        "mode": getattr(coordinator, "mode", "inline"),
        "rounds": coordinator.rounds,
        "messages_exchanged": coordinator.messages_exchanged,
        "stalls": coordinator.stalls,
        "restarts": recovery.get("restarts", 0),
        "per_shard_restarts": {
            str(shard): info.get("restarts", 0)
            for shard, info in (recovery.get("per_shard") or {}).items()
        },
        "straggler_rounds": dict(coordinator.runtime["straggler_rounds"]),
    }


def run_world_sharded(
    build_world: Callable,
    qps: float,
    seed: int,
    shards: int,
    *,
    duration: Optional[float] = None,
    warmup: Optional[float] = None,
    max_requests: Optional[int] = None,
    mix=None,
    trace=False,
    slo=None,
    scrape_interval: Optional[float] = None,
    mode: str = "auto",
    max_window: Optional[float] = None,
    audit: bool = False,
    fault_plan=None,
    shard_timeout: Optional[float] = None,
    shard_restarts: Optional[int] = None,
    journal_path=None,
    client_machine: str = "client",
    **world_kwargs,
) -> WorldRun:
    """Run *build_world* under an open-loop client across *shards*
    shards and merge the result into the :class:`WorldRun` record the
    vanilla :func:`~repro.experiments.loadsweep.run_world` returns.

    Plans shards over the world's machines and replicates the world per
    shard behind :class:`WorldShardHost`. The client stops at the
    *duration* horizon (statistics then cover the post-*warmup* window)
    and/or after *max_requests* arrivals; with no horizon the run ends
    when the last request resolves. *seed* is used as-is.

    When the planner falls back — loudly, via its ``RuntimeWarning`` —
    because the fabric has no positive lookahead or there are fewer
    machines than shards, the run is the vanilla
    :func:`~repro.experiments.loadsweep.run_world` itself, bit-identical
    by construction (its ``shard_sync`` is ``None``). *fault_plan* may
    only carry ``shard_kill``/``shard_hang`` faults, and only on a run
    that really shards. *audit* runs the merged cross-shard
    conservation audit; *shard_timeout*, *shard_restarts* and
    *journal_path* tune the supervision layer (see
    :func:`repro.shard.worker.run_sharded`).

    Tracing and SLOs need a *duration* horizon: a root shard's SLO
    monitor stands down when its own shard's queue drains, not the
    world's, and neither has been shown identical to vanilla on a
    count-terminated run, so such a run refuses them before building
    anything.
    """
    if duration is None and max_requests is None:
        raise ShardingError(
            "a sharded run needs a duration horizon and/or max_requests"
        )
    if duration is None and (trace or slo is not None):
        raise ShardingError(
            f"a sharded run with no duration horizon does not support "
            f"trace or slo (shards={shards}); run it with shards=1"
        )
    probe = build_world(seed=seed, **world_kwargs)
    validate_world_shardable(probe)
    plan = plan_shards(probe.cluster.machine_names, shards,
                       probe.cluster.network)
    if not plan.sharded:
        if fault_plan is not None and len(fault_plan):
            raise ShardingError(
                f"fault plan carries {len(fault_plan)} fault(s) but the "
                f"run is not sharded"
                + (f" ({plan.fallback_reason})" if plan.fallback_reason else "")
            )
        return run_world(
            build_world, qps, seed, duration=duration, warmup=warmup,
            max_requests=max_requests, mix=mix, fault_plan=fault_plan,
            audit=audit, trace=trace, slo=slo,
            scrape_interval=scrape_interval, **world_kwargs,
        )
    chaos = _shard_chaos(fault_plan, plan)
    specs, edges = world_shard_specs(
        plan, builder=build_world, world_kwargs=dict(world_kwargs),
        seed=seed, qps=qps, duration=duration, warmup=warmup,
        max_requests=max_requests, client_machine=client_machine,
        mix=mix, trace=trace, slo=slo, scrape_interval=scrape_interval,
    )
    run_kwargs: dict = {"chaos": chaos, "journal_path": journal_path}
    if shard_timeout is not None:
        run_kwargs["window_timeout"] = shard_timeout
    if shard_restarts is not None:
        run_kwargs["max_shard_restarts"] = shard_restarts
    results, coordinator = run_sharded(
        specs, edges, mode=mode, max_window=max_window, **run_kwargs
    )
    if audit:
        from ..experiments.audit import audit_sharded_run

        audit_sharded_run(
            results, messages_exchanged=coordinator.messages_exchanged
        )
    root = results[plan.assignments[client_machine]]
    if trace_requested(trace):
        _merge_traces(results, root)
    sync = _shard_sync_counters(coordinator, plan.num_shards)
    return WorldRun(
        root["latencies"], root["completions"], root["outcomes"],
        shard_sync=sync,
        recovery=coordinator.recovery if sync["restarts"] else None,
        root=root, results=results, runtime=coordinator.runtime,
    )


def sharded_load_point(
    build_world: Callable,
    qps: float,
    duration: float,
    warmup: float,
    seed: int,
    shards: int,
    *,
    mix=None,
    trace=False,
    trace_dir=None,
    slo=None,
    scrape_interval: Optional[float] = None,
    mode: str = "auto",
    max_window: Optional[float] = None,
    audit: bool = False,
    fault_plan=None,
    shard_timeout: Optional[float] = None,
    shard_restarts: Optional[int] = None,
    journal_path=None,
    client_machine: str = "client",
    **world_kwargs,
):
    """Measure one load point of *build_world* across *shards* shards.

    :func:`run_world_sharded` over the *duration* horizon (the vanilla
    run on a planner fallback), folded into a ``SweepPoint`` by
    :func:`~repro.experiments.loadsweep.sweep_point`. *seed* is the
    already-derived per-point seed.
    """
    run = run_world_sharded(
        build_world, qps, seed, shards, duration=duration, warmup=warmup,
        mix=mix, trace=implied_trace(trace, trace_dir), slo=slo,
        scrape_interval=scrape_interval, mode=mode, max_window=max_window,
        audit=audit, fault_plan=fault_plan, shard_timeout=shard_timeout,
        shard_restarts=shard_restarts, journal_path=journal_path,
        client_machine=client_machine, **world_kwargs,
    )
    return sweep_point(
        run, qps, duration, warmup, seed, trace_dir=trace_dir,
        scrape_interval=scrape_interval,
    )
