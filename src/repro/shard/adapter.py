"""Generic shard-side world adapter: any registered topology under
``--shards``.

:class:`ShardedDispatcher` is the real
:class:`~repro.topology.Dispatcher` behind ShardHost mailboxes, so any
builder's world shards through :func:`run_world_sharded` (or
:func:`sharded_load_point` for a load point) — no world needs a hand
re-expression of its dispatch logic, and
:func:`validate_world_shardable` is the one gate on which worlds can.

The scheme — **full-world replication with machine ownership**:

* every shard builds the *complete* world from the same builder,
  kwargs, and derived root seed. Idle replicas cost nothing (no
  component schedules events at init), and replication means every
  shard can resolve any instance, pool, or connection by name.
  Named RNG streams come from the shared seed, so a stream yields the
  same values on every replica — placement decides *where* a stream
  is consumed, never *what* it yields.
* every simulated machine is owned by exactly one shard (the
  :func:`~repro.shard.partition.plan_shards` assignment). A node
  visit is the vanilla dispatcher's two steps around the wire, both
  reading the visit's one message record: *route* (instance, pool
  checkout, message size), then the sequence stamp, the tx netproc
  and the wire-delay draw, all on the sender's shard; *start visit*
  (in-flight count, job, ``on_enter`` op, span) on the shard owning
  the instance, after the rx netproc and in-order delivery. Each
  request runs on vanilla ``_RequestState`` — a replica group on
  every shard but the root.
* the dispatcher overrides only the four steps ownership forces:
  decisions draw from per-machine streams (``shard-dispatch/{machine}``
  / ``shard-net/{machine}``) so the draw order is shard-count
  invariant; a message whose receiver another shard owns crosses as a
  ``ShardMessage`` (its record's fields in a plain tuple) stamped
  ``now + wire_delay >= now + lookahead`` (the fabric's propagation
  floor *is* the plan's lookahead, so the conservative guarantee
  holds by construction); instances resolve statically, since
  services are single-instance; and the visit starts on arrival,
  with fan-in counted there. Same-machine hops short-circuit through
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
  on a draw-free fabric when every hop into the node takes the same
  time; a same-machine parent's loopback hop is shorter than a
  cross-machine one, and under a stochastic fabric a parent that
  leaves earlier can still arrive later.);
* supervision, barrier-replay recovery, and the merged conservation
  audit work unchanged — the hosts here are ordinary
  ``ShardHost`` subclasses.

Telemetry ships home at ``finalize()``: each shard returns the spans
and events of the replica requests it ran (only when tracing is on — a
trace-off run never pays the shipping cost), the root shard returns
the vanilla client payload and SLO summary, and
:func:`run_world_sharded` merges everything into the same
:class:`~repro.experiments.loadsweep.WorldRun` the vanilla core
returns — one point builder per result type serves both. The merged
closed spans equal vanilla's, with two departures: a span opens when
its visit starts, on arrival, so an entry message still in flight at
the horizon leaves no span where vanilla has an open one; and the
merge orders a request's spans by ``(enter, attempt, node)``, so
siblings entered at the same instant sort by node name and span ids
can differ from vanilla's.

Not everything can run under the adapter; unsupported shapes raise
:class:`~repro.errors.ShardingError` at build time rather than
diverging silently: multi-instance services (placement would need a
cross-shard balancer), pools other than ``round_robin`` behind a tree
node (``least_outstanding`` reads counters split across shards), trees
whose sinks run on more than one machine (the sink count lives on one
shard), ``connection_of`` ops whose target node lives on a different
machine, ``same_instance_as`` continuations with a parent on the
instance they pin to (the continuation rides that parent's incoming
connection towards the same instance, whose in-order sequence the
upstream's shard also stamps), and in-simulation fault plans.
Resilience policies (retry/hedge timers would race the window barrier)
are refused at the first submit.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ShardingError
from ..experiments.loadsweep import (
    WorldRun,
    client_payload,
    run_world,
    shard_journal_name,
    start_slo_monitor,
    sweep_point,
)
from ..experiments.options import RunOptions
from ..service import Connection, Request
from ..telemetry.tracing import (
    Span,
    SpanEvent,
    Trace,
    trace_requested,
)
from ..topology.dispatcher import (
    Dispatcher,
    _Message,
    _RequestGroup,
    _RequestState,
)
from ..topology.path_tree import PathNode
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

#: The machine every builder's open-loop client runs on; its shard is
#: the root.
CLIENT_MACHINE = "client"


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


def validate_world_shardable(world) -> Dict[Tuple[str, str], str]:
    """Check *world* fits the adapter's ownership rules.

    Returns the ``(tree_name, node_name) -> machine_name`` ownership
    map; raises :class:`~repro.errors.ShardingError` describing the
    first unsupported shape found.
    """
    deployment = world.deployment
    node_machine: Dict[Tuple[str, str], str] = {}
    for tree in world.dispatcher._trees_by_name.values():
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
            policy = deployment.pool_policy(node.service)
            if node.same_instance_as is None and policy != "round_robin":
                raise ShardingError(
                    f"node {node.name!r} checks out connections to "
                    f"{node.service!r} from a {policy!r} pool; only "
                    f"round_robin checkout is shard-count invariant "
                    f"(least_outstanding reads counters that are split "
                    f"across shards)"
                )
        for node in tree.nodes:
            mine = node_machine[(tree.name, node.name)]
            if node.same_instance_as is not None:
                pinned = deployment.instances(node.service)[0]
                for parent in tree.parents(node.name):
                    if deployment.instances(parent.service)[0] is pinned:
                        raise ShardingError(
                            f"node {node.name!r} continues on "
                            f"{pinned.name!r} after parent "
                            f"{parent.name!r}, which runs there: the "
                            f"continuation rides the parent's incoming "
                            f"connection towards the same instance, so "
                            f"that direction's in-order sequence would "
                            f"be stamped on two shards"
                        )
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
        sink_machines = sorted({
            node_machine[(tree.name, sink.name)] for sink in tree.sinks
        })
        if len(sink_machines) > 1:
            raise ShardingError(
                f"tree {tree.name!r} has sinks on machines "
                f"{sink_machines}: a request completes when all its "
                f"sinks have left, and the adapter counts them on one "
                f"machine's shard"
            )
    return node_machine


class ShardedDispatcher(Dispatcher):
    """The vanilla dispatcher on one shard of a world whose machines
    are split across shards.

    Constructed *from* an already-built world: it adopts the world's
    registered trees and replaces the world's dispatcher. Requests are
    only ever submitted on the root shard (where the client machine
    lives); other shards hear of a request from its first message and
    hold a replica group for it. Every step of the node visit is the
    vanilla code on ``_RequestState`` except the four that machine
    ownership forces:

    1. :meth:`_streams` — decisions draw from per-machine streams;
    2. :meth:`_cross` — a message for a machine another shard owns
       goes through the mailbox, its record read into the body by
       :meth:`_export` and rebuilt there by :meth:`_import`;
    3. :meth:`_resolve_instance` — instances resolve statically;
    4. :meth:`_enter_node` — the visit's message is handled by
       :meth:`_arrive_visit`, so the visit starts on arrival, with
       fan-in counted there.

    :meth:`submit` additionally refuses resilience policies.
    """

    def __init__(self, host: "WorldShardHost", world,
                 assignments: Dict[str, int]) -> None:
        super().__init__(world.sim, world.deployment,
                         network=world.cluster.network)
        source = world.dispatcher
        self._trees = list(source._trees)
        self._trees_by_type = dict(source._trees_by_type)
        self._trees_by_name = dict(source._trees_by_name)
        self._host = host
        self._assignments = dict(assignments)
        #: tree name -> how many of its nodes this shard executes.
        self._my_node_count: Dict[str, int] = {}
        for (tree_name, _node), machine in validate_world_shardable(world).items():
            if self._assignments[machine] == host.shard_id:
                self._my_node_count[tree_name] = (
                    self._my_node_count.get(tree_name, 0) + 1
                )
        #: The adapter refuses scaling and instance faults, so the
        #: instance set is fixed for the run and names resolve once.
        self._instances_by_name = {
            inst.name: inst for inst in world.deployment.all_instances
        }
        #: request id -> this shard's state of a request a mailbox
        #: message may still name here.
        self._live: Dict[int, _RequestState] = {}
        #: Traces of the sampled requests this shard holds replicas
        #: of; their spans and events ship home in ``finalize``.
        self._replica_traces: List[Trace] = []
        self._machine_streams: Dict[str, tuple] = {}
        self._conn_keys: Dict[Connection, tuple] = {}
        if host.is_root:
            self.on_outcome(self._retire_resolved)
        # Bound once, like the vanilla visit handlers: every visit's
        # message carries it.
        self._arrive_visit = self._arrive_visit

    # Ownership overrides ----------------------------------------------

    def _streams(self, machine: str) -> tuple:
        """Override 1: every machine's decisions draw from its own
        streams (``shard-dispatch/{machine}``, and ``shard-net/{machine}``
        with its ``/loopback`` twin), so the draw order does not depend
        on the shard count."""
        streams = self._machine_streams.get(machine)
        if streams is None:
            random = self.sim.random
            streams = self._machine_streams[machine] = (
                random.stream(f"shard-dispatch/{machine}"),
                self.network.delay_sampler(
                    random.stream(f"shard-net/{machine}"),
                    loopback_rng=random.stream(
                        f"shard-net/{machine}/loopback"
                    ),
                ),
            )
        return streams

    def _cross(self, delay: float, message: _Message) -> None:
        """Override 2: a message for a machine another shard owns
        leaves through the mailbox, stamped at its wire arrival; that
        shard continues it in :meth:`_receive`."""
        dst_shard = self._shard_of(message.dst)
        if dst_shard == self._host.shard_id:
            super()._cross(delay, message)
            return
        kind, body = self._export(message)
        self._host.send(dst_shard, self.sim.now + delay, kind, body)

    def _resolve_instance(self, state: _RequestState, node: PathNode):
        """Override 3: services are single-instance (checked at build),
        so every node resolves statically — a ``same_instance_as``
        target that ran on another shard included."""
        return self.deployment.instances(node.service)[0]

    def _enter_node(self, state: _RequestState, node: PathNode,
                    src_instance, parent_conn) -> None:
        """Override 4: every parent routes and sends its own copy of
        the visit; the fan-in join and the visit start run on arrival,
        on the shard owning the instance (:meth:`_arrive_visit`)."""
        if self._host.is_root:
            # The root hears back about every request it submitted (the
            # response), so it keeps each until it resolves.
            self._live.setdefault(state.request.request_id, state)
        message = self._route(state, node, src_instance, parent_conn)
        message.handler = self._arrive_visit
        self._send(message)

    def _arrive_visit(self, message: _Message) -> None:
        """A visit's message reached its instance: count one parent at
        the node, and on the last one start the visit here."""
        state = message.state
        node = message.node
        if not self._join(state, node):
            return  # fan-in not satisfied yet; this arrival only counts
        job = self._start_visit(message)
        if (not self._host.is_root and len(state.visits)
                == self._my_node_count[state.tree.name]):
            # Every node this shard runs has started, so no further
            # message for the request can reach it.
            del self._live[state.request.request_id]
        message.instance.accept(job, node.path_id, node.path_name)

    def submit(self, request: Request, on_complete=None,
               client_name: str = "client", client_machine: str = "client",
               policy=None) -> None:
        if policy is not None:
            raise ShardingError(
                "resilience policies (retry/hedge/timeout) are not "
                "supported under the shard adapter yet — their timers "
                "would race the conservative window barrier"
            )
        super().submit(request, on_complete, client_name, client_machine)

    # The mailbox ------------------------------------------------------

    def _shard_of(self, machine: str) -> int:
        try:
            return self._assignments[machine]
        except KeyError:
            raise ShardingError(
                f"machine {machine!r} is not in the shard plan "
                f"(known: {sorted(self._assignments)})"
            )

    def _export(self, message: _Message) -> Tuple[str, tuple]:
        """*message* as a ``(kind, body)`` mailbox entry whose body is a
        plain picklable tuple; :meth:`_import` is its inverse on the
        receiving shard. A response (no node) names only its request."""
        state = message.state
        request = state.request
        wire = (message.src, message.dst, message.size, message.sent_at)
        if message.node is None:
            return "response", (request.request_id,) + wire
        return "visit", (
            request.request_id, request.request_type, request.created_at,
            request.size_bytes, state.group.trace is not None,
            state.tree.name, message.node.name,
            self._conn_key(message.conn), message.seq, message.upstream,
        ) + wire

    def _import(self, kind: str, body: tuple) -> _Message:
        """A mailbox body back to the message it was exported from."""
        if kind == "response":
            rid, src, dst, size, sent_at = body
            return _Message(self._live[rid], None, None, None, None, src,
                            dst, size, None, sent_at, self._finish_attempt)
        (rid, rtype, created_at, req_size, traced, tree_name, node_name,
         conn_key, seq, upstream, src, dst, size, sent_at) = body
        state = self._live.get(rid)
        if state is None:
            state = self._replica(rid, rtype, created_at, req_size, traced,
                                  tree_name)
        node = state.tree.node(node_name)
        instance = self._resolve_instance(state, node)
        conn = self._conn_of(conn_key)
        return _Message(state, node, instance, conn, seq, src, dst, size,
                        upstream, sent_at, self._arrive_visit)

    def _receive(self, kind: str, body: tuple) -> None:
        """Continue a message another shard handed over in
        :meth:`_cross`: the receiver's netproc, then its arrival."""
        self._after_wire(self._import(kind, body))

    def _conn_key(self, conn) -> Optional[tuple]:
        """Name *conn* to another shard as ``(upstream, receiver,
        index)``: every replica creates the same pools, so
        :meth:`_conn_of` finds the same connection there."""
        if conn is None:
            return None
        key = self._conn_keys.get(conn)
        if key is None:  # a pool created since the last lookup
            for (upstream, receiver), pool in self.deployment._pools.items():
                for index, each in enumerate(pool.connections):
                    self._conn_keys[each] = (upstream, receiver, index)
            key = self._conn_keys[conn]
        return key

    def _conn_of(self, key: Optional[tuple]):
        if key is None:
            return None
        upstream, receiver, index = key
        pool = self.deployment.pool_between(
            upstream, self._instances_by_name[receiver]
        )
        return pool.connections[index]

    # Request lifecycle ------------------------------------------------

    def _replica(self, rid: int, rtype: str, created_at: float,
                 req_size: float, traced: bool,
                 tree_name: str) -> _RequestState:
        """This shard's copy of a request it first hears of from a
        message: a replica group whose one attempt mirrors the root's."""
        request = Request(created_at, request_type=rtype, size_bytes=req_size)
        request.request_id = rid
        request.attempts = 1
        group = _RequestGroup(request, None, None, "client", CLIENT_MACHINE)
        if traced:
            # Run options trace with the default span breakdown.
            group.trace = Trace(rid, rtype, created_at)
            self._replica_traces.append(group.trace)
        # Not listed in ``group.states``: a replica never resolves or
        # hedges, the only readers of that list, and listing it would
        # tie the group and its attempt in a reference cycle.
        state = _RequestState(group, self._trees_by_name[tree_name])
        self._live[rid] = state
        return state

    def _retire_resolved(self, request: Request) -> None:
        del self._live[request.request_id]


class WorldShardHost(ShardHost):
    """One shard of an adapter-run world.

    Builds the full world replica, swaps in a
    :class:`ShardedDispatcher`, and — on the root shard (wherever the
    client machine landed) — attaches the open-loop client, the
    options' tracer, and their SLO monitor. The client stops at the
    *duration* horizon, after *max_requests* arrivals, or at whichever
    comes first; with no horizon the shard runs until its queue
    drains. Every shard scrapes the tiers it owns when the options
    scrape. Everything else is inherited ShardHost mechanics, so
    supervision/replay and the conservation audit apply unchanged.
    """

    def __init__(self, *, shard_id: int, builder, world_kwargs: dict,
                 seed: int, assignments: Dict[str, int], lookahead: float,
                 qps: float, duration: Optional[float],
                 warmup: Optional[float],
                 max_requests: Optional[int] = None, mix=None,
                 options: RunOptions = RunOptions()) -> None:
        world = builder(seed=seed, **world_kwargs)
        super().__init__(shard_id, world.sim, lookahead, end_time=duration)
        self.is_root = assignments[CLIENT_MACHINE] == shard_id
        self._warmup = warmup
        self.trace_active = trace_requested(options.trace)
        self.dispatcher = ShardedDispatcher(self, world, assignments)
        world.dispatcher = self.dispatcher
        self.client = None
        self._slo_monitor = None
        if self.is_root:
            if self.trace_active:
                self.dispatcher.trace = options.trace
            self.client = OpenLoopClient(
                world.sim, self.dispatcher, arrivals=qps, mix=mix,
                max_requests=max_requests, stop_at=duration,
                realism=world.realism,
            )
            self._slo_monitor = start_slo_monitor(
                self.client, options.slo, qps, duration=duration,
                warmup=warmup, max_requests=max_requests,
            )
            self.client.start()
        self._scraper = None
        if options.scrape_interval is not None:
            from ..telemetry.scrape import Scraper

            # Each shard scrapes only the tiers it owns (the replica's
            # other instances never execute, so their series would be
            # flat zeros); the root additionally scrapes the client.
            self._scraper = Scraper(
                world.sim,
                interval=options.scrape_interval,
                tiers=_owned_tiers(world.deployment, assignments, shard_id),
                client=self.client,
                stop_at=duration,
            ).start()

    def handle(self, message) -> None:
        self.dispatcher._receive(message.kind, message.payload)

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
            base["trace_spans"] = {
                trace.request_id: (
                    [_span_tuple(span) for span in trace.spans],
                    [(e.t, e.name, e.attrs) for e in trace.events],
                )
                for trace in dispatcher._replica_traces
                if trace.spans or trace.events
            }
        if not self.is_root:
            return base
        base.update(
            client_payload(self.client, self._warmup, self.end_time),
            in_flight=len(dispatcher._live),
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


def _with_shards(options: RunOptions, shards: Optional[int]) -> RunOptions:
    """*options* with the shard count *shards* folded in, so a sharded
    run reads its count from one place. ``None`` keeps the options'
    count; a count that contradicts one the options already set (any
    but the default ``1``) is refused rather than picked between."""
    if shards is None or shards == options.shards:
        return options
    if options.shards != 1:
        raise ShardingError(
            f"shards={shards} contradicts the options' "
            f"shards={options.shards}; give the count once"
        )
    return dataclasses.replace(options, shards=shards)


def run_world_sharded(
    build_world: Callable,
    qps: float,
    seed: int,
    shards: Optional[int] = None,
    /,
    options: RunOptions = RunOptions(),
    *,
    duration: Optional[float] = None,
    warmup: Optional[float] = None,
    max_requests: Optional[int] = None,
    mix=None,
    mode: str = "auto",
    journal_name: Optional[str] = None,
    **world_kwargs,
) -> WorldRun:
    """Run *build_world* under an open-loop client across the options'
    shard count and merge the result into the :class:`WorldRun` record
    the vanilla :func:`~repro.experiments.loadsweep.run_world` returns.

    Plans shards over the world's machines and replicates the world per
    shard behind :class:`WorldShardHost`. The client stops at the
    *duration* horizon (statistics then cover the post-*warmup* window)
    and/or after *max_requests* arrivals; with no horizon the run ends
    when the last request resolves. *seed* is used as-is. A positional
    *shards* is shorthand for options that carry that count; one that
    contradicts the options' own count is refused.

    When the planner falls back — loudly, via its ``RuntimeWarning`` —
    because the fabric has no positive lookahead or there are fewer
    machines than shards, the run is the vanilla
    :func:`~repro.experiments.loadsweep.run_world` itself, bit-identical
    by construction (its ``shard_sync`` is ``None``). The options' fault
    plan may only carry ``shard_kill``/``shard_hang`` faults, and only
    on a run that really shards; their audit is the merged cross-shard
    conservation audit; their ``shard_timeout`` and ``shard_restarts``
    tune the supervision layer (see
    :func:`repro.shard.worker.run_sharded`), which mirrors its replay
    journal to *journal_name* (by default, named by *seed*) under the
    options' ``shard_journal_dir`` when they have a run directory.

    Tracing and SLOs need a *duration* horizon: a root shard's SLO
    monitor stands down when its own shard's queue drains, not the
    world's, and neither has been shown identical to vanilla on a
    count-terminated run, so such a run refuses them before building
    anything.
    """
    options = _with_shards(options, shards)
    if duration is None and max_requests is None:
        raise ShardingError(
            "a sharded run needs a duration horizon and/or max_requests"
        )
    if duration is None and (options.trace or options.slo is not None):
        raise ShardingError(
            f"a sharded run with no duration horizon does not support "
            f"trace or slo (shards={options.shards}); run it with shards=1"
        )
    probe = build_world(seed=seed, **world_kwargs)
    validate_world_shardable(probe)
    plan = plan_shards(probe.cluster.machine_names, options.shards,
                       probe.cluster.network)
    fault_plan = options.fault_plan
    if not plan.sharded:
        if fault_plan is not None and len(fault_plan):
            raise ShardingError(
                f"fault plan carries {len(fault_plan)} fault(s) but the "
                f"run is not sharded"
                + (f" ({plan.fallback_reason})" if plan.fallback_reason else "")
            )
        return run_world(
            build_world, qps, seed, options, duration=duration,
            warmup=warmup, max_requests=max_requests, mix=mix,
            **world_kwargs,
        )
    chaos = _shard_chaos(fault_plan, plan)
    specs, edges = world_shard_specs(
        plan, builder=build_world, world_kwargs=dict(world_kwargs),
        seed=seed, qps=qps, duration=duration, warmup=warmup,
        max_requests=max_requests, mix=mix, options=options,
    )
    run_kwargs: dict = {"chaos": chaos}
    if options.shard_journal_dir is not None:
        run_kwargs["journal_path"] = options.shard_journal_dir / (
            journal_name or shard_journal_name(seed)
        )
    if options.shard_timeout is not None:
        run_kwargs["window_timeout"] = options.shard_timeout
    if options.shard_restarts is not None:
        run_kwargs["max_shard_restarts"] = options.shard_restarts
    results, coordinator = run_sharded(specs, edges, mode=mode, **run_kwargs)
    if options.audit:
        from ..experiments.audit import audit_sharded_run

        audit_sharded_run(
            results, messages_exchanged=coordinator.messages_exchanged
        )
    root = results[plan.assignments[CLIENT_MACHINE]]
    if trace_requested(options.trace):
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
    shards: Optional[int] = None,
    /,
    options: RunOptions = RunOptions(),
    **run_kwargs,
):
    """Measure one load point of *build_world* across the options'
    shard count (or a positional *shards*, as in
    :func:`run_world_sharded`).

    :func:`run_world_sharded` over the *duration* horizon (the vanilla
    run on a planner fallback), folded into a ``SweepPoint`` by
    :func:`~repro.experiments.loadsweep.sweep_point`. *seed* is the
    already-derived per-point seed; *run_kwargs* are the request
    ``mix``, the executor ``mode`` and the builder's keywords.
    """
    options = _with_shards(options, shards)
    run = run_world_sharded(build_world, qps, seed, options=options,
                            duration=duration, warmup=warmup, **run_kwargs)
    return sweep_point(run, qps, duration, warmup, seed, options)
