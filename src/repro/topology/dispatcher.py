"""The central dispatcher.

Paper SSIII-A: "uqSim is an event-driven simulator, and uses a
centralized scheduler to dispatch requests to the appropriate
microservices instances."

The dispatcher walks each request through its path tree:

1. pick the tree for the request (by request type, or probabilistically
   when the application "exhibits control flow variability");
2. enter each root node: choose an instance (load balancer or
   ``same_instance_as`` affinity), check out a connection, apply
   enter-ops (http1.1-style blocking), route the message over the
   network — through the per-machine network-processing services for
   cross-machine hops — and hand the job to the instance;
3. on job completion apply leave-ops, then fan out copies to children,
   entering each child only once all of its parents completed (fan-in
   synchronisation);
4. when every sink node has completed, send the response back to the
   client and fire the completion callback.

On top of that request walk sits the resilience layer
(:mod:`repro.resilience`): a request submitted with a
:class:`~repro.resilience.ResiliencePolicy` may be shed at admission,
timed out mid-flight (with real cancellation — queue slots, blocks and
connections are reclaimed), retried with backoff under a retry budget,
hedged with cancel-on-first-response, or failed fast by a per
(upstream, service) circuit breaker. Every request resolves with a
terminal ``outcome`` (``ok``/``timeout``/``shed``/``failed``).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..engine import PRIORITY_ARRIVAL, Simulator
from ..engine.random import cumulative_weights, weighted_index
from ..errors import TopologyError
from ..hardware import NetworkFabric
from ..resilience import CircuitBreaker, ResiliencePolicy
from ..service import Connection, Job, Microservice, Request
from ..service.job import (
    OUTCOME_FAILED,
    OUTCOME_OK,
    OUTCOME_SHED,
    OUTCOME_TIMEOUT,
)
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.tracing import SPAN_CANCELLED, Span, TraceConfig, Tracer
from .deployment import Deployment
from .load_balancer import NoHealthyInstance
from .path_tree import NodeOp, PathNode, PathTree


def _noop() -> None:
    pass


class _RequestGroup:
    """Book-keeping for one logical request across all its attempts.

    The group owns the resilience decisions (shed / retry / hedge /
    resolve); each traversal of the path tree — primary, retry, or
    hedge — is a :class:`_RequestState`.
    """

    __slots__ = (
        "request",
        "policy",
        "on_complete",
        "client_name",
        "client_machine",
        "states",
        "resolved",
        "hedges",
        "hedge_event",
        "trace",
    )

    def __init__(
        self,
        request: Request,
        policy: Optional[ResiliencePolicy],
        on_complete: Optional[Callable[[Request], None]],
        client_name: str,
        client_machine: str,
    ) -> None:
        self.request = request
        self.policy = policy
        self.on_complete = on_complete
        self.client_name = client_name
        self.client_machine = client_machine
        self.states: List[_RequestState] = []
        self.resolved = False
        self.hedges = 0
        self.hedge_event = None
        # The request's Trace when it was sampled for tracing.
        self.trace = None

    def live_states(self) -> List["_RequestState"]:
        """Attempts still traversing the tree."""
        return [s for s in self.states if not s.cancelled and not s.finished]


class _Visit:
    """One attempt's visit to one path node: the instance it runs on,
    its incoming connection, its job, the upstream that sent it, whether
    it has left, and its span (traced requests only).

    The job holds the attempt's state as its ``owner``, and the state
    holds this record, so the record lets go of the job once it is
    spent — when the visit leaves, or when its attempt is cancelled —
    and ``job`` is ``None`` from then on.
    """

    __slots__ = ("instance", "conn", "job", "upstream", "left", "span")

    def __init__(
        self,
        instance: Microservice,
        conn: Optional[Connection],
        job: Job,
        upstream: str,
    ) -> None:
        self.instance = instance
        self.conn = conn
        self.job: Optional[Job] = job
        self.upstream = upstream
        self.left = False
        self.span: Optional[Span] = None


class _Message:
    """One message from route to arrival: a visit's message to its node,
    or an attempt's response (no node, instance or connection).

    ``seq`` is its in-order sequence number on ``conn``, stamped at
    send, and its arrival runs ``handler(message)``. Netproc jobs carry
    the record as their ``owner``; the attempt never holds it, so a
    message in flight ties no cycle. Every message is built
    positionally: CPython hands a class call's keyword arguments to
    ``__init__`` through a dict, which triples the cost of a step every
    message takes.
    """

    __slots__ = ("state", "node", "instance", "conn", "seq", "src", "dst",
                 "size", "upstream", "sent_at", "handler")

    def __init__(self, state: "_RequestState", node: Optional[PathNode],
                 instance: Optional[Microservice],
                 conn: Optional[Connection], seq: Optional[int], src: str,
                 dst: str, size: float, upstream: Optional[str],
                 sent_at: float, handler: Callable) -> None:
        self.state = state
        self.node = node
        self.instance = instance
        self.conn = conn
        self.seq = seq
        self.src = src
        self.dst = dst
        self.size = size
        self.upstream = upstream
        self.sent_at = sent_at
        self.handler = handler


class _RequestState:
    """Book-keeping for one in-flight traversal (attempt) of the tree."""

    __slots__ = (
        "group",
        "request",
        "tree",
        "compiled",
        "attempt",
        "visits",
        "arrivals",
        "pending_sinks",
        "used_conns",
        "cancelled",
        "finished",
        "timeout_event",
    )

    def __init__(self, group: _RequestGroup, tree: PathTree) -> None:
        self.group = group
        self.request = group.request
        self.tree = tree
        compiled = self.compiled = tree.compile()
        # Attempt id: 0 for the primary, 1.. for retries/hedges. Spans
        # are keyed (attempt, node) so re-visits never clobber earlier
        # attempts' timestamps.
        self.attempt = len(group.states)
        # Started visits by node name, in start order: a node has been
        # entered once it has an entry here.
        self.visits: Dict[str, _Visit] = {}
        # Parents arrived per fan-in node; counted before any visit
        # exists.
        self.arrivals: Dict[str, int] = {}
        self.pending_sinks = compiled.sinks
        self.used_conns: List[Connection] = []
        self.cancelled = False
        self.finished = False
        self.timeout_event = None


class Dispatcher:
    """Routes requests through path trees over a deployment."""

    def __init__(
        self,
        sim: Simulator,
        deployment: Deployment,
        network: Optional[NetworkFabric] = None,
        trace: Union[bool, TraceConfig] = False,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        """With tracing on (``trace=True`` for defaults, or a
        :class:`~repro.telemetry.tracing.TraceConfig` for sampling /
        breakdown control), every sampled request carries a
        :class:`~repro.telemetry.tracing.Trace` of attempt-aware spans
        in ``request.metadata["trace"]`` — the raw material for
        critical-path analysis and the Perfetto/OTLP exporters. With a
        :class:`~repro.telemetry.metrics.MetricsRegistry` attached via
        *metrics*, the dispatcher additionally feeds aggregate
        counters/histograms (outcomes, retries, hedges, per-edge
        traffic, end-to-end latency)."""
        self.sim = sim
        self.deployment = deployment
        self.network = network or NetworkFabric()
        self._tracer: Optional[Tracer] = None
        self.trace = trace
        self.metrics = metrics
        self._rng = sim.random.stream("dispatcher")
        # The streams every machine's decisions draw from (see
        # _streams); wire-delay jitter is block-buffered on dedicated
        # streams, one for propagation and one for loopback (two draws
        # per request hop — a hot path under heavy traffic).
        self._own_streams = (
            self._rng,
            self.network.delay_sampler(
                sim.random.stream("dispatcher/network"),
                loopback_rng=sim.random.stream("dispatcher/network/loopback"),
            ),
        )
        self._trees: List[Tuple[PathTree, float]] = []
        # Normalised CDF of the weighted trees, derived at the first
        # pick after add_tree changes them (see _pick_tree).
        self._tree_cdf: Optional[list] = None
        self._trees_by_type: Dict[str, PathTree] = {}
        self._trees_by_name: Dict[str, PathTree] = {}
        self._breakers: Dict[Tuple[str, str], CircuitBreaker] = {}
        # The handlers every visit, job and message is handed, bound
        # once: a bound method made per use would be one more young
        # container for the cycle collector while the visit is in
        # flight.
        self._leave_node = self._leave_node
        self._on_job_fail = self._on_job_fail
        self._deliver_job = self._deliver_job
        self._finish_attempt = self._finish_attempt
        self._arrive = self._arrive
        self._after_wire = self._after_wire
        self._sent = self._sent
        self._received = self._received
        self._discarded = self._discarded
        # Telemetry.
        self.requests_submitted = 0
        self.requests_completed = 0
        self.requests_timed_out = 0
        self.requests_failed = 0
        self.requests_shed = 0
        self.attempts_launched = 0
        self.retries_issued = 0
        self.hedges_issued = 0
        self.fallbacks_served = 0
        self.messages_dropped = 0
        self._outcome_listeners: List[Callable[[Request], None]] = []

    # Tracing --------------------------------------------------------------

    @property
    def trace(self) -> Union[bool, TraceConfig]:
        """The active :class:`TraceConfig`, or ``False`` when tracing
        is off — so ``if dispatcher.trace:`` keeps working."""
        return self._tracer.config if self._tracer is not None else False

    @trace.setter
    def trace(self, value: Union[bool, TraceConfig, None]) -> None:
        """Turn tracing on (``True`` / a :class:`TraceConfig`) or off
        (falsy). Sampling draws come from a dedicated seeded stream, so
        traced runs stay reproducible."""
        if not value:
            self._tracer = None
            return
        config = value if isinstance(value, TraceConfig) else TraceConfig()
        self._tracer = Tracer(
            config, rng=self.sim.random.stream("dispatcher/trace")
        )

    @property
    def tracer(self) -> Optional[Tracer]:
        """The live :class:`Tracer` (collected traces, sampling
        counters), or ``None`` when tracing is off."""
        return self._tracer

    # Tree registration ---------------------------------------------------

    def add_tree(
        self,
        tree: PathTree,
        probability: Optional[float] = None,
        request_type: Optional[str] = None,
    ) -> PathTree:
        """Register a path tree.

        With *request_type*, requests of that type always use this tree.
        With *probability*, untyped requests draw among the weighted
        trees. A single tree registered with neither serves everything.
        Every tree is additionally addressable by its name — admission
        control's graceful-degradation fallback and the shard adapter's
        mailbox messages refer to trees that way — so a different tree
        may not reuse a registered name.
        """
        tree.validate()
        known = self._trees_by_name.get(tree.name)
        if known is not None and known is not tree:
            raise TopologyError(
                f"another tree is already registered as {tree.name!r}; "
                f"give each tree a unique name"
            )
        if request_type is not None:
            if request_type in self._trees_by_type:
                raise TopologyError(
                    f"request type {request_type!r} already has a tree"
                )
            self._trees_by_type[request_type] = tree
        else:
            self._trees.append((tree, 1.0 if probability is None else probability))
            self._tree_cdf = None
        self._trees_by_name[tree.name] = tree
        return tree

    def add_fallback_tree(self, tree: PathTree) -> PathTree:
        """Register a tree reachable ONLY as a degradation fallback
        (never picked for regular traffic)."""
        tree.validate()
        if tree.name in self._trees_by_name:
            raise TopologyError(f"tree {tree.name!r} already registered")
        self._trees_by_name[tree.name] = tree
        return tree

    def _pick_tree(self, request: Request) -> PathTree:
        by_type = self._trees_by_type.get(request.request_type)
        if by_type is not None:
            return by_type
        if not self._trees:
            raise TopologyError(
                f"no path tree for request type {request.request_type!r} "
                f"and no default trees registered"
            )
        if len(self._trees) == 1:
            return self._trees[0][0]
        cdf = self._tree_cdf
        if cdf is None:
            # First pick since add_tree changed the trees (a sharded
            # dispatcher copies them in after construction, so its CDF
            # is derived from the copy).
            weights = np.array([w for _, w in self._trees], dtype=float)
            total = weights.sum()
            if not math.isclose(total, 1.0, rel_tol=1e-9):
                raise TopologyError(
                    f"tree probabilities must sum to 1, got {total!r}"
                )
            cdf = self._tree_cdf = cumulative_weights(weights)
        return self._trees[weighted_index(self._rng, cdf)][0]

    # Outcome listeners ----------------------------------------------------

    def on_outcome(self, listener: Callable[[Request], None]) -> None:
        """Register a listener fired at every request resolution (any
        outcome) — availability monitors subscribe here."""
        self._outcome_listeners.append(listener)

    # Request lifecycle ----------------------------------------------------

    def submit(
        self,
        request: Request,
        on_complete: Optional[Callable[[Request], None]] = None,
        client_name: str = "client",
        client_machine: str = "client",
        policy: Optional[ResiliencePolicy] = None,
    ) -> None:
        """Inject *request* from a client located on *client_machine*.

        *policy* switches on the resilience layer for this request;
        without it the request traverses exactly as before (and still
        resolves with outcome ``ok``).
        """
        self.requests_submitted += 1
        group = _RequestGroup(
            request, policy, on_complete, client_name, client_machine
        )
        if self._tracer is not None:
            group.trace = self._tracer.start_trace(request)
            if group.trace is not None:
                request.metadata["trace"] = group.trace
        if policy is not None and policy.retry is not None:
            if policy.retry.budget is not None:
                policy.retry.budget.note_primary()
        if policy is not None and policy.hedge is not None:
            group.hedge_event = self.sim.schedule(
                policy.hedge.delay, self._on_hedge, group
            )
        self._launch_attempt(group)

    def _launch_attempt(self, group: _RequestGroup, hedge: bool = False) -> None:
        """Run one traversal of the path tree for *group*."""
        policy = group.policy
        tree = self._pick_tree(group.request)
        if not hedge and policy is not None and policy.admission is not None:
            shed_tree = self._admission_decision(policy, tree)
            if shed_tree is False:
                if group.trace is not None:
                    group.trace.add_event(self.sim.now, "shed")
                self._resolve(group, OUTCOME_SHED)
                return
            if shed_tree is not None:
                tree = shed_tree
                group.request.metadata["degraded"] = True
                self.fallbacks_served += 1
                if group.trace is not None:
                    group.trace.add_event(
                        self.sim.now, "degraded", tree=tree.name
                    )
        state = _RequestState(group, tree)
        group.states.append(state)
        group.request.attempts += 1
        self.attempts_launched += 1
        if policy is not None and policy.timeout is not None:
            state.timeout_event = self.sim.schedule(
                policy.timeout, self._on_timeout, state
            )
        for root in state.compiled.roots:
            if state.cancelled or group.resolved:
                break
            self._enter_node(state, root, src_instance=None, parent_conn=None)

    def _admission_decision(self, policy, tree):
        """None = admit; False = shed; a PathTree = degrade onto it."""
        admission = policy.admission
        entry_service = tree.compile().roots[0].service
        try:
            replicas = self.deployment.instances(entry_service)
        except TopologyError:
            return None
        alive = [r for r in replicas if r.healthy]
        if not alive:
            return None  # routing will fail properly downstream
        pending = min(inst.pending_dispatch for inst in alive)
        if not admission.sheds(pending):
            return None
        if admission.fallback_tree is not None:
            fallback = self._trees_by_name.get(admission.fallback_tree)
            if fallback is None:
                raise TopologyError(
                    f"admission fallback_tree {admission.fallback_tree!r} "
                    f"is not a registered tree"
                )
            return fallback
        return False

    # Resilience timers ----------------------------------------------------

    def _on_timeout(self, state: _RequestState) -> None:
        group = state.group
        if group.resolved or state.cancelled or state.finished:
            return
        if group.trace is not None:
            group.trace.add_event(
                self.sim.now, "timeout_fired", attempt=state.attempt
            )
        self._record_breaker_failures(state)
        self._attempt_failed(state, OUTCOME_TIMEOUT)

    def _on_hedge(self, group: _RequestGroup) -> None:
        group.hedge_event = None
        policy = group.policy
        if group.resolved or policy is None or policy.hedge is None:
            return
        if not group.live_states():
            return  # between retries; nothing to hedge against
        if group.hedges >= policy.hedge.max_hedges:
            return
        group.hedges += 1
        self.hedges_issued += 1
        if self.metrics is not None:
            self.metrics.counter("hedges_total").inc()
        if group.trace is not None:
            group.trace.add_event(
                self.sim.now, "hedge_launched", attempt=len(group.states)
            )
        self._launch_attempt(group, hedge=True)
        if group.hedges < policy.hedge.max_hedges:
            group.hedge_event = self.sim.schedule(
                policy.hedge.delay, self._on_hedge, group
            )

    # Failure / cancellation ----------------------------------------------

    def _attempt_failed(self, state: _RequestState, outcome: str) -> None:
        """One attempt died; retry, wait for a live hedge, or resolve."""
        group = state.group
        self._cancel_state(state)
        if group.resolved or group.live_states():
            return
        policy = group.policy
        if policy is not None and policy.retry is not None:
            retry = policy.retry
            if retry.allows(group.request.attempts) and (
                retry.budget is None or retry.budget.try_spend()
            ):
                self.retries_issued += 1
                if self.metrics is not None:
                    self.metrics.counter("retries_total").inc()
                delay = retry.backoff(group.request.attempts + 1, self._rng)
                if group.trace is not None:
                    group.trace.add_event(
                        self.sim.now, "retry_scheduled",
                        attempt=len(group.states), delay=delay,
                    )
                self.sim.schedule(delay, self._relaunch, group)
                return
        self._resolve(group, outcome)

    def _relaunch(self, group: _RequestGroup) -> None:
        if group.resolved:
            return
        self._launch_attempt(group)

    def _cancel_state(self, state: _RequestState) -> None:
        """Reclaim everything a traversal holds: queue slots, blocks,
        connections, and the per-instance in-flight counters."""
        if state.cancelled or state.finished:
            return
        state.cancelled = True
        if state.timeout_event is not None:
            self.sim.cancel(state.timeout_event)
            state.timeout_event = None
        visits = state.visits.values()
        trace = state.group.trace
        if trace is not None:
            # Close this attempt's open spans with ITS timestamps — a
            # losing hedge must never report the winner's timings.
            trace.add_event(
                self.sim.now, "attempt_cancelled", attempt=state.attempt
            )
            for visit in visits:
                if not visit.span.closed:
                    visit.span.finish(
                        self.sim.now,
                        job=visit.job,
                        status=SPAN_CANCELLED,
                        breakdown=trace.breakdown,
                    )
        for visit in visits:
            job = visit.job
            if job is None:
                continue  # left: the job completed and was dropped
            visit.job = None
            job.cancelled = True
            if job.service is not None:
                job.service.cancel_job(job)
        for visit in visits:
            if not visit.left:
                visit.instance.pending_dispatch -= 1
                visit.left = True
        # Blocks are per request, not per attempt: a connection a live
        # sibling attempt (a hedge) still visits keeps the block it uses.
        seen = {
            id(sibling_visit.conn)
            for sibling in state.group.live_states()
            for sibling_visit in sibling.visits.values()
        }
        request_id = state.request.request_id
        for visit in visits:
            conn = visit.conn
            if conn is None or id(conn) in seen:
                continue
            seen.add(id(conn))
            conn.abandon(request_id)
        for conn in state.used_conns:
            conn.outstanding -= 1
        state.used_conns = []

    def _on_job_fail(self, job: Job) -> None:
        """An instance crashed with (or refused) this attempt's job."""
        state = job.owner
        node = job.node
        group = state.group
        if group.resolved or state.cancelled or state.finished:
            return
        breaker = self._breaker_for(
            state, node, state.visits[node.name].upstream
        )
        if breaker is not None:
            breaker.record_failure(self.sim.now)
        self._attempt_failed(state, OUTCOME_FAILED)

    def _record_breaker_failures(self, state: _RequestState) -> None:
        """Attribute a timeout to every node entered but never left."""
        if state.group.policy is None or state.group.policy.breaker is None:
            return
        for name, visit in state.visits.items():
            if not visit.left:
                node = state.tree.node(name)
                breaker = self._breaker_for(state, node, visit.upstream)
                if breaker is not None:
                    breaker.record_failure(self.sim.now)

    def _breaker_for(
        self, state: _RequestState, node: PathNode, upstream: str
    ) -> Optional[CircuitBreaker]:
        """The breaker guarding the (*upstream*, node's service) edge,
        made on first use; ``None`` without a breaker policy."""
        policy = state.group.policy
        if policy is None or policy.breaker is None:
            return None
        key = (upstream, node.service)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(policy.breaker)
            self._breakers[key] = breaker
        return breaker

    def breaker(self, upstream: str, service: str) -> Optional[CircuitBreaker]:
        """The circuit breaker guarding the (upstream, service) edge,
        if one has been created (introspection/telemetry)."""
        return self._breakers.get((upstream, service))

    # Resolution -----------------------------------------------------------

    def _resolve(self, group: _RequestGroup, outcome: str) -> None:
        """Terminal state: stamp the outcome and tell the client."""
        if group.resolved:
            return
        group.resolved = True
        if group.hedge_event is not None:
            self.sim.cancel(group.hedge_event)
            group.hedge_event = None
        for state in group.states:
            self._cancel_state(state)
        # Each attempt holds its group: let go of them once spent.
        group.states = []
        request = group.request
        request.completed_at = self.sim.now
        request.outcome = outcome
        if outcome == OUTCOME_OK:
            self.requests_completed += 1
        elif outcome == OUTCOME_TIMEOUT:
            self.requests_timed_out += 1
        elif outcome == OUTCOME_SHED:
            self.requests_shed += 1
        else:
            self.requests_failed += 1
        if group.trace is not None:
            group.trace.finish(self.sim.now, outcome)
        if self.metrics is not None:
            self.metrics.counter("requests_total", outcome=outcome).inc()
            if outcome == OUTCOME_OK:
                self.metrics.histogram("request_latency_seconds").observe(
                    request.latency
                )
        for listener in self._outcome_listeners:
            listener(request)
        if group.on_complete is not None:
            group.on_complete(request)

    # Tree traversal -------------------------------------------------------

    def _resolve_instance(
        self, state: _RequestState, node: PathNode
    ) -> Microservice:
        if node.same_instance_as is not None:
            # An ancestor (checked at build), so visited before this node.
            return state.visits[node.same_instance_as].instance
        replicas = self.deployment.instances(node.service)
        return self.deployment.balancer(node.service).pick(replicas, self._rng)

    def _resolve_connection(
        self,
        state: _RequestState,
        node: PathNode,
        instance: Microservice,
        src_instance: Optional[Microservice],
        parent_conn: Optional[Connection],
    ) -> Optional[Connection]:
        if node.same_instance_as is not None:
            # A continuation: the message is a *response* riding back on
            # the connection the request went out on (the triggering
            # parent's incoming connection).
            return parent_conn
        upstream_key = (
            src_instance.name if src_instance is not None
            else state.group.client_name
        )
        conn = self.deployment.pool_between(upstream_key, instance).checkout()
        conn.outstanding += 1
        state.used_conns.append(conn)
        return conn

    def _apply_op(
        self, op: Optional[NodeOp], state: _RequestState, job: Job
    ) -> None:
        if op is None:
            return
        if op.connection_of is not None:
            # This node or an ancestor (checked at build): visited.
            target = state.visits[op.connection_of].conn
        else:
            target = job.connection
        if target is None:
            return  # nothing to (un)block: node had no connection
        request_id = state.request.request_id
        if op.action == NodeOp.BLOCK:
            # A hedge/retry attempt may hit the same connection its
            # sibling already blocked; the block is per-request, so a
            # second registration would be an error, not a state change.
            if target.holder != request_id and not target.waiting(request_id):
                target.block(request_id)
        else:
            target.unblock(request_id)

    # A node visit is two named steps around the wire: *route* (breaker,
    # instance, connection and message size, all decided at the sender)
    # and *start visit* (in-flight count, job, on_enter op and span).
    # This dispatcher runs them back to back at the sender; the shard
    # adapter (repro.shard.adapter) starts the visit on arrival instead.
    # Route makes the visit's _Message, and every later step reads that
    # one record; its handler is a method bound once, never a closure,
    # so the adapter can name it across a shard mailbox.

    @staticmethod
    def _join(state: _RequestState, node: PathNode) -> bool:
        """Count one parent's arrival at *node*; True on the last one
        its fan-in waits for (at once for a node with one parent, and
        for a root)."""
        name = node.name
        wanted = state.compiled.fan_in.get(name)
        if wanted is None:
            return True
        arrived = state.arrivals.get(name, 0) + 1
        state.arrivals[name] = arrived
        return arrived == wanted

    def _enter_node(
        self,
        state: _RequestState,
        node: PathNode,
        src_instance: Optional[Microservice],
        parent_conn: Optional[Connection],
    ) -> None:
        """Enter *node* once its fan-in is met: route the visit, start
        it here at the sender, and send its message (the last arriving
        parent carries the job onward)."""
        if not self._join(state, node):
            return
        message = self._route(state, node, src_instance, parent_conn)
        if message is None:
            return
        self._start_visit(message)
        self._send(message)

    def _route(
        self,
        state: _RequestState,
        node: PathNode,
        src_instance: Optional[Microservice],
        parent_conn: Optional[Connection],
    ) -> Optional[_Message]:
        """Route a visit to *node*: its message, addressed and sized at
        the sender, or ``None`` when the breaker or an unhealthy tier
        failed the attempt instead."""
        upstream_key = (
            src_instance.name if src_instance is not None
            else state.group.client_name
        )
        breaker = self._breaker_for(state, node, upstream_key)
        if breaker is not None and node.same_instance_as is None:
            if not breaker.allow(self.sim.now):
                if state.group.trace is not None:
                    state.group.trace.add_event(
                        self.sim.now, "breaker_rejected",
                        attempt=state.attempt, node=node.name,
                        service=node.service,
                    )
                self._attempt_failed(state, OUTCOME_FAILED)
                return None
        try:
            instance = self._resolve_instance(state, node)
        except NoHealthyInstance:
            if breaker is not None:
                breaker.record_failure(self.sim.now)
            self._attempt_failed(state, OUTCOME_FAILED)
            return None
        conn = self._resolve_connection(
            state, node, instance, src_instance, parent_conn
        )
        src_machine = (
            src_instance.machine_name
            if src_instance is not None
            else state.group.client_machine
        )
        rng = self._streams(src_machine)[0]
        size = node.message_bytes(state.request.size_bytes, rng)
        return _Message(state, node, instance, conn, None, src_machine,
                        instance.machine_name, size, upstream_key,
                        self.sim.now, self._deliver_job)

    def _start_visit(self, message: _Message) -> Job:
        """Start *message*'s visit: count it in flight on its instance,
        make its job, apply the on_enter op, and open its span, entered
        when the message was sent."""
        state = message.state
        node = message.node
        instance = message.instance
        upstream = message.upstream
        instance.pending_dispatch += 1
        job = Job(state.request, size_bytes=message.size,
                  connection=message.conn)
        job.owner = state
        job.node = node
        job.on_complete = self._leave_node
        job.on_fail = self._on_job_fail
        visit = state.visits[node.name] = _Visit(
            instance, message.conn, job, upstream
        )
        self._apply_op(node.on_enter, state, job)
        trace = state.group.trace
        if trace is not None:
            visit.span = trace.start_span(
                node.name, instance.name, node.service,
                state.attempt, message.sent_at, upstream=upstream,
            )
        if self.metrics is not None:
            self.metrics.counter(
                "edge_requests_total",
                upstream=upstream, service=node.service,
            ).inc()
        return job

    def _send(self, message: _Message) -> bool:
        """Send *message*; on arrival its handler runs, in its
        connection's send order. False when a partition at the sender
        lost it."""
        conn = message.conn
        if conn is not None:
            # Delivered in send order towards the receiver (TCP
            # semantics) however the hops complete; see _arrive, _lost.
            message.seq = conn.next_seq(message.instance.name)
        if self.network.is_partitioned(message.src, message.dst):
            self._lost(message)
            return False
        self._hop(message)
        return True

    def _arrive(self, message: _Message) -> None:
        """*message* reached its receiver: run its handler, in send
        order on its connection."""
        conn = message.conn
        if conn is None:
            message.handler(message)
        else:
            conn.deliver_in_order(
                message.instance.name, message.seq, message.handler, message
            )

    def _deliver_job(self, message: _Message) -> None:
        """Hand the visit's job to its instance — unless the attempt
        died while the message was in flight."""
        state = message.state
        if state.cancelled or state.group.resolved:
            return
        node = message.node
        message.instance.accept(
            state.visits[node.name].job, node.path_id, node.path_name
        )

    def _leave_node(self, job: Job) -> None:
        """The visit's job completed: leave its node and enter the
        children."""
        state = job.owner
        if state.cancelled or state.group.resolved:
            return  # resources were reclaimed at cancellation
        node = job.node
        visit = state.visits[node.name]
        visit.instance.pending_dispatch -= 1
        visit.left = True
        breaker = self._breaker_for(state, node, visit.upstream)
        if breaker is not None:
            breaker.record_success()
        self._apply_op(node.on_leave, state, job)
        visit.job = None  # spent: the job's callbacks hold this state
        trace = state.group.trace
        if trace is not None:
            visit.span.finish(self.sim.now, job=job, breakdown=trace.breakdown)
        children = state.compiled.children[node.name]
        if not children:
            state.pending_sinks -= 1
            if state.pending_sinks == 0:
                self._complete_request(state, visit.instance)
            return
        for child in children:
            if state.cancelled or state.group.resolved:
                break  # a sibling hop tripped a breaker / failed fast
            # Fan-out makes one copy per child.
            self._enter_node(
                state,
                child,
                src_instance=visit.instance,
                parent_conn=visit.conn,
            )

    def _complete_request(
        self, state: _RequestState, sink_instance: Microservice
    ) -> None:
        """The last sink left *sink_instance*: send the response. One
        lost on the way surfaces only as a timeout."""
        src_machine = sink_instance.machine_name
        size = state.tree.response_size(
            state.request.size_bytes, self._streams(src_machine)[0]
        )
        response = _Message(state, None, None, None, None, src_machine,
                            state.group.client_machine, size, None,
                            self.sim.now, self._finish_attempt)
        if self._send(response) and state.group.trace is not None:
            state.group.trace.add_event(
                self.sim.now, "response_sent", attempt=state.attempt
            )

    def _finish_attempt(self, response: _Message) -> None:
        """The response reached the client: the attempt succeeded."""
        state = response.state
        if state.cancelled or state.group.resolved:
            return  # lost the hedge race / timed out at the wire
        state.finished = True
        if state.timeout_event is not None:
            self.sim.cancel(state.timeout_event)
            state.timeout_event = None
        for conn in state.used_conns:
            conn.outstanding -= 1
        state.used_conns = []
        self._resolve(state.group, OUTCOME_OK)

    # Network routing -------------------------------------------------------

    def _streams(self, machine: str) -> tuple:
        """The ``(rng, wire-delay sampler)`` for decisions made on
        *machine*: message and response sizes, and the wire delay of
        messages it sends. Here, the dispatcher's own streams."""
        return self._own_streams

    def _hop(self, message: _Message) -> None:
        """Route *message* from its ``src`` to its ``dst`` machine; at
        the receiver :meth:`_arrive` runs its handler.

        Cross-machine messages pass through the sender's and receiver's
        network-processing services (when deployed) around the wire
        delay, each netproc job carrying the message as its ``owner``;
        same-machine messages short-circuit through loopback.

        Exactly one of the handler and :meth:`_lost` eventually runs:
        the message is lost en route at a mid-flight partition, or in a
        netproc relay that is down or crashes with it.
        """
        src, dst = message.src, message.dst
        if src == dst:
            delay = self._streams(src)[1].delay(src, dst, message.size)
            # Wire deliveries are fire-and-forget: cancellation happens
            # via request/attempt state checked at delivery time, never
            # by cancelling the event.
            self.sim.schedule(
                delay, self._arrive, message, priority=PRIORITY_ARRIVAL
            )
            return
        tx_proc = self.deployment.netproc(src)
        if tx_proc is None:
            self._over_wire(message)  # _send just checked the partition
            return
        tx_job = Job(message.state.request, size_bytes=message.size)
        tx_job.owner = message
        tx_job.on_complete = self._sent
        tx_job.on_discard = self._discarded
        tx_proc.accept(tx_job)

    def _sent(self, tx_job: Job) -> None:
        """The sender's netproc let the message out: onto the wire,
        unless the link was severed while it waited there."""
        message = tx_job.owner
        if self.network.is_partitioned(message.src, message.dst):
            self._lost(message)
            return  # lost on the severed link
        self._over_wire(message)

    def _over_wire(self, message: _Message) -> None:
        """Draw *message*'s wire delay and put it on the wire."""
        src, dst = message.src, message.dst
        delay = self._streams(src)[1].delay(src, dst, message.size)
        self._cross(delay, message)

    def _cross(self, delay: float, message: _Message) -> None:
        """*message* reaches its ``dst`` machine after *delay*."""
        self.sim.schedule(
            delay, self._after_wire, message, priority=PRIORITY_ARRIVAL
        )

    def _after_wire(self, message: _Message) -> None:
        """*message* came off the wire: through the receiver's netproc,
        then :meth:`_arrive`."""
        rx_proc = self.deployment.netproc(message.dst)
        if rx_proc is None:
            self._arrive(message)
            return
        rx_job = Job(message.state.request, size_bytes=message.size)
        rx_job.owner = message
        rx_job.on_complete = self._received
        rx_job.on_discard = self._discarded
        rx_proc.accept(rx_job)

    def _received(self, rx_job: Job) -> None:
        """The receiver's netproc handed the message up."""
        self._arrive(rx_job.owner)

    def _discarded(self, job: Job) -> None:
        """A netproc lost the message its job carries as ``owner``: it
        was down, or crashed with it."""
        self._lost(job.owner)

    def _lost(self, message: _Message) -> None:
        """*message* was lost on the way. One on a connection still
        consumes its in-order slot there: otherwise every later message
        on that connection towards its receiver parks forever, wedging
        the connection past the instance's own recovery."""
        self.messages_dropped += 1
        conn = message.conn
        if conn is not None:
            conn.deliver_in_order(message.instance.name, message.seq, _noop)

    def __repr__(self) -> str:
        return (
            f"<Dispatcher trees={len(self._trees) + len(self._trees_by_type)} "
            f"in-flight={self.requests_submitted - self.requests_completed - self.requests_timed_out - self.requests_failed - self.requests_shed}>"
        )
