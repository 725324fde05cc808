"""The fan-out/fan-in world (Fig 14) on the sharded simulation core.

This was the first model ported to :mod:`repro.shard`: the
tail-at-scale cluster — one cheap aggregator fanning every request out
to ``cluster_size`` single-core leaves and synchronising the responses
— partitioned so the client+aggregator pair anchors shard 0 and the
leaves spread contiguously over all shards.

Generic topologies now run through :mod:`repro.shard.adapter` instead
of needing a port like this one. This module stays as a
topology-specific *optimization*: at 500 leaves the per-shard fan-in
batching below (one "done" aggregate per shard per request, versus
the adapter's generic one-message-per-parent) keeps the root shard's
per-request event count at O(shards) — which is what the >=2x
speedup contract in ``benchmarks/bench_shard.py`` is measured
against. Its ``_shard_chaos`` helper is shared with the adapter.

**Equivalence to the single-shard engine.** Every component keeps the
stream names it has under ``shards=1`` (``service/leaf7/stage0``,
``client/client/arrivals``, ``dispatcher/network``, …), and
:class:`~repro.engine.RandomStreams` derives a stream's generator from
its *name* and the shared root seed — so placement decides where a
stream is instantiated, never what it yields. Two deliberate
departures from the vanilla :class:`~repro.topology.Dispatcher` path:

* the **leaf -> aggregator response hop** is sampled on the leaf's
  shard from a per-leaf stream (``shard/leaf{i}/response``) and folded
  into the mailbox stamp, instead of being drawn from the shared
  ``dispatcher/network`` sampler when the *last* leaf finishes. Under
  a fabric whose propagation is draw-free (e.g. ``Deterministic``)
  the two schemes produce bit-identical completion times — the
  identity the equivalence tests pin; under a stochastic fabric they
  agree in distribution but not draw-for-draw (documented tolerance).
* in-flight messages are **in-order per connection** on both schemes,
  but the sharded leaf re-implements the parking on the wire payload's
  ``(conn_id, seq)`` because the root-side
  :class:`~repro.service.Connection` object never crosses the shard
  boundary.
* each shard **aggregates its "done" notifications per request**: the
  fan-in only needs the count and the *latest* arrival, so a shard
  holding 125 leaves sends one message stamped at its local maximum
  instead of 125. The join fires at the max of the shard maxima —
  exactly the global maximum — and the aggregate carries its argmax
  leaf so the join rides the same connection the vanilla dispatcher
  would pick. This turns the root shard's per-request event count
  from O(cluster_size) into O(shards).

Zero-lookahead edges (the default exponential propagation) make
conservative windows impossible; :func:`plan_fanout_shards` then falls
back to one shard and :func:`measure_fanout_sharded` runs the ordinary
single-simulator world, so callers always get an answer.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..distributions import Deterministic, Exponential
from ..engine import PRIORITY_ARRIVAL, Simulator
from ..errors import ShardingError
from ..hardware import Machine, NetworkFabric
from ..service import (
    ConnectionPool,
    ExecutionPath,
    Job,
    Microservice,
    PathSelector,
    Request,
    SimpleModel,
    SingleQueue,
    Stage,
)
from ..service.job import OUTCOME_OK
from ..topology.deployment import DEFAULT_POOL_SIZE
from ..workload import OpenLoopClient
from .partition import ShardPlan, plan_shards
from .sync import ShardHost
from .worker import run_sharded

CLIENT_MACHINE = "client"
AGG_MACHINE = "aggregator"
AGG_NAME = "agg"


def fanout_machines(cluster_size: int) -> List[str]:
    """The machine list of the fan-out world, in placement order."""
    return [CLIENT_MACHINE, AGG_MACHINE] + [
        f"leaf-node{i}" for i in range(cluster_size)
    ]


def plan_fanout_shards(
    cluster_size: int, num_shards: int, fabric: NetworkFabric
) -> ShardPlan:
    """Partition the fan-out world: client and aggregator are
    zero-lookahead neighbours (callbacks, not network), so they pin
    together; leaves spread contiguously."""
    return plan_shards(
        fanout_machines(cluster_size),
        num_shards,
        fabric,
        colocate=[[CLIENT_MACHINE, AGG_MACHINE]],
    )


def _slow_mask(sim: Simulator, cluster_size: int, slow_fraction: float):
    """Recompute the slow-leaf placement mask on any shard.

    Same stream name and root seed as
    ``build_fanout_cluster`` -> same draws on every shard, so all
    shards agree on which leaves are degraded without exchanging
    state."""
    rng = sim.random.stream("tail-at-scale/placement")
    return rng.random(cluster_size) < slow_fraction


class _LeafRuntime:
    """One leaf service plus its folded-in response hop.

    Used both by leaf shards and by the root shard (for leaves the
    plan co-locates with the aggregator), so local and remote leaves
    run byte-for-byte the same model code — only ``emit`` differs
    (local schedule vs cross-shard send).
    """

    def __init__(
        self,
        sim: Simulator,
        index: int,
        fabric: NetworkFabric,
        mean_service: float,
        slow: bool,
        slow_factor: float,
        emit: Callable[[int, int, float], None],
    ) -> None:
        self.index = index
        self.sim = sim
        self._fabric = fabric
        self._emit = emit
        machine_name = f"leaf-node{index}"
        machine = Machine(machine_name, 1)
        core_set = machine.allocate(f"leaf{index}", 1)
        mean = mean_service * (slow_factor if slow else 1.0)
        stage = Stage("process", 0, SingleQueue(), base=Exponential(mean))
        selector = PathSelector([ExecutionPath(0, "only", [0])])
        self.instance = Microservice(
            f"leaf{index}",
            sim,
            [stage],
            selector,
            core_set,
            model=SimpleModel(),
            machine_name=machine_name,
            tier=f"leaf{index}",
        )
        # Response-hop delays draw from a per-leaf stream so the draw
        # sequence is a function of this leaf's job order alone —
        # invariant under shard count.
        self._response_rng = sim.random.stream(f"shard/leaf{index}/response")
        # Per-connection in-order delivery state, keyed by the
        # root-side conn_id riding the wire payload (mirrors
        # Connection.deliver_in_order).
        self._deliver_seq: Dict[int, int] = {}
        self._parked: Dict[int, Dict[int, Callable[[], None]]] = {}
        self.jobs_done = 0

    def deliver(
        self, request_id: int, conn_id: int, seq: int, size_bytes: float
    ) -> None:
        """A dispatch arrived at its stamped time; release it in
        connection order."""

        def accept() -> None:
            # Local twin of the root-side request: the microservice
            # model only reads size/created_at, never identity.
            request = Request(created_at=self.sim.now, size_bytes=size_bytes)
            job = Job(request, size_bytes=size_bytes)
            job.on_complete = lambda _job: self._complete(
                request_id, size_bytes
            )
            self.instance.accept(job, None, None)

        expected = self._deliver_seq.get(conn_id, 0) + 1
        if seq != expected:
            self._parked.setdefault(conn_id, {})[seq] = accept
            return
        self._deliver_seq[conn_id] = seq
        accept()
        parked = self._parked.get(conn_id)
        while parked:
            nxt = self._deliver_seq[conn_id] + 1
            release = parked.pop(nxt, None)
            if release is None:
                break
            self._deliver_seq[conn_id] = nxt
            release()

    def _complete(self, request_id: int, size_bytes: float) -> None:
        self.jobs_done += 1
        # Fold the response hop into the stamp: the done notification
        # reaches the aggregator one network delay after the leaf
        # finishes, and that delay is >= the fabric lookahead — which
        # is exactly what lets the leaf live on another shard.
        d_response = self._fabric.delay(
            self.instance.machine_name,
            AGG_MACHINE,
            size_bytes,
            self._response_rng,
        )
        self._emit(self.index, request_id, self.sim.now + d_response)


class _DoneBatch:
    """Per-request aggregation of a shard's leaf completions.

    The fan-in only consumes the *count* of arrivals and the identity
    of the last one, so a shard batches its local leaves into a single
    notification stamped at the local maximum arrival. The join still
    fires at the global maximum (the max of the shard maxima) over the
    same connection (the batch carries its argmax leaf, and the
    last-stamped batch's argmax is the global argmax).
    """

    def __init__(self, expected: int) -> None:
        self._expected = expected
        #: request_id -> [arrivals so far, max stamp, argmax leaf]
        self._pending: Dict[int, list] = {}

    def note(
        self, request_id: int, leaf_index: int, time: float
    ) -> Optional[Tuple[int, int, float]]:
        """Record one leaf completion; when the shard's last leaf for
        this request lands, return ``(argmax_leaf, count, max_time)``
        to flush."""
        entry = self._pending.get(request_id)
        if entry is None:
            entry = self._pending[request_id] = [0, time, leaf_index]
        entry[0] += 1
        if time > entry[1]:
            entry[1] = time
            entry[2] = leaf_index
        if entry[0] < self._expected:
            return None
        del self._pending[request_id]
        return entry[2], entry[0], entry[1]


class FanoutRootHost(ShardHost):
    """Shard 0: open-loop client, aggregator service, fan-out glue.

    Plays the :class:`~repro.topology.Dispatcher` role for this fixed
    topology — same pool checkout, sequence stamping, fan-in counting
    and outcome resolution, with cross-shard legs replaced by mailbox
    sends. Leaves the plan co-locates with the aggregator run here
    through the same :class:`_LeafRuntime` as remote ones.
    """

    def __init__(
        self,
        *,
        cluster_size: int,
        slow_fraction: float,
        slow_factor: float,
        mean_service: float,
        seed: int,
        qps: float,
        fabric: NetworkFabric,
        leaf_shards: List[int],
        lookahead: float,
        num_requests: Optional[int] = None,
        stop_at: Optional[float] = None,
        warmup: Optional[float] = None,
    ) -> None:
        sim = Simulator(seed=seed)
        super().__init__(0, sim, lookahead, end_time=stop_at)
        self.cluster_size = cluster_size
        self._fabric = fabric
        self._leaf_shards = list(leaf_shards)
        self._warmup = warmup
        # Same shared network sampler (and stream name) the vanilla
        # dispatcher owns, drawn in the same order: one client->agg
        # delay per submit, cluster_size agg->leaf delays per fan-out,
        # one agg->client delay per response.
        self._net = fabric.delay_sampler(sim.random.stream("dispatcher/network"))

        agg_machine = Machine(AGG_MACHINE, 4)
        agg_cores = agg_machine.allocate(AGG_NAME, 4)
        agg_stage = Stage(
            "process", 0, SingleQueue(), base=Deterministic(5e-6)
        )
        self._agg = Microservice(
            AGG_NAME,
            sim,
            [agg_stage],
            PathSelector([ExecutionPath(0, "only", [0])]),
            agg_cores,
            model=SimpleModel(),
            machine_name=AGG_MACHINE,
            tier=AGG_NAME,
        )
        self._client_pool = ConnectionPool(
            f"client->{AGG_NAME}", DEFAULT_POOL_SIZE
        )
        self._leaf_pools = [
            ConnectionPool(f"{AGG_NAME}->leaf{i}", DEFAULT_POOL_SIZE)
            for i in range(cluster_size)
        ]

        mask = _slow_mask(sim, cluster_size, slow_fraction)
        self._local_leaves: Dict[int, _LeafRuntime] = {}
        for i, shard in enumerate(self._leaf_shards):
            if shard == 0:
                self._local_leaves[i] = _LeafRuntime(
                    sim, i, fabric, mean_service,
                    bool(mask[i]), slow_factor, self._local_emit,
                )
        self._local_done = _DoneBatch(len(self._local_leaves))

        #: request_id -> in-flight bookkeeping
        self._states: Dict[int, dict] = {}
        self.requests_submitted = 0
        self.requests_completed = 0

        self.client = OpenLoopClient(
            sim,
            self,  # duck-typed dispatcher: only .submit is used
            arrivals=qps,
            max_requests=num_requests,
            stop_at=stop_at,
        )
        self.client.start()

    # Dispatcher interface (what OpenLoopClient calls) -----------------

    def submit(
        self,
        request: Request,
        on_complete=None,
        client_name: str = "client",
        client_machine: str = CLIENT_MACHINE,
        policy=None,
    ) -> Request:
        if policy is not None:
            raise ShardingError(
                "the sharded fan-out world does not support resilience "
                "policies; run with shards=1"
            )
        self.requests_submitted += 1
        size = request.size_bytes
        conn = self._client_pool.checkout()
        conn.outstanding += 1
        state = {
            "request": request,
            "on_complete": on_complete,
            "arrivals": 0,
            "conns": [conn],
            "leaf_conns": {},
        }
        self._states[request.request_id] = state
        job = Job(request, size_bytes=size, connection=conn)
        job.on_complete = lambda _job: self._fan_out(state)
        seq = conn.next_seq(AGG_NAME)
        delay = self._net.delay(client_machine, AGG_MACHINE, size)
        self.sim.schedule_transient(
            delay,
            conn.deliver_in_order,
            AGG_NAME,
            seq,
            lambda: self._agg.accept(job, None, None),
            priority=PRIORITY_ARRIVAL,
        )
        return request

    # Fan-out / fan-in --------------------------------------------------

    def _fan_out(self, state: dict) -> None:
        """Root stage finished: dispatch to every leaf, in leaf order
        (the order the vanilla dispatcher walks the path tree)."""
        request = state["request"]
        size = request.size_bytes
        now = self.sim.now
        for i in range(self.cluster_size):
            conn = self._leaf_pools[i].checkout()
            conn.outstanding += 1
            state["conns"].append(conn)
            state["leaf_conns"][i] = conn
            seq = conn.next_seq(f"leaf{i}")
            delay = self._net.delay(AGG_MACHINE, f"leaf-node{i}", size)
            arrive = now + delay
            shard = self._leaf_shards[i]
            if shard == 0:
                leaf = self._local_leaves[i]
                self.sim.schedule_at(
                    arrive,
                    leaf.deliver,
                    request.request_id,
                    conn.conn_id,
                    seq,
                    size,
                    priority=PRIORITY_ARRIVAL,
                )
            else:
                self.send(
                    shard,
                    arrive,
                    "job",
                    (request.request_id, i, conn.conn_id, seq, size),
                    priority=PRIORITY_ARRIVAL,
                )

    def _local_emit(self, leaf_index: int, request_id: int, time: float) -> None:
        flush = self._local_done.note(request_id, leaf_index, time)
        if flush is not None:
            argmax_leaf, count, at = flush
            self.sim.schedule_at(
                at, self._on_done, request_id, argmax_leaf, count,
                priority=PRIORITY_ARRIVAL,
            )

    def handle(self, message) -> None:
        if message.kind != "done":
            raise ShardingError(
                f"root shard got unexpected message kind {message.kind!r} "
                f"from shard {message.src_shard}"
            )
        request_id, leaf_index, count = message.payload
        self._on_done(request_id, leaf_index, count)

    def _on_done(self, request_id: int, leaf_index: int, count: int = 1) -> None:
        state = self._states[request_id]
        state["arrivals"] += count
        if state["arrivals"] < self.cluster_size:
            return
        # Fan-in complete: the join stage runs on the aggregator over
        # the last-arriving leaf's connection, exactly like the
        # vanilla join node (same_instance_as the root).
        request = state["request"]
        conn = state["leaf_conns"][leaf_index]
        job = Job(request, size_bytes=request.size_bytes, connection=conn)
        job.on_complete = lambda _job: self._respond(state)
        seq = conn.next_seq(AGG_NAME)
        conn.deliver_in_order(
            AGG_NAME, seq, lambda: self._agg.accept(job, None, None)
        )

    def _respond(self, state: dict) -> None:
        request = state["request"]
        delay = self._net.delay(AGG_MACHINE, CLIENT_MACHINE, request.size_bytes)
        self.sim.schedule_transient(
            delay, self._finish, state, priority=PRIORITY_ARRIVAL
        )

    def _finish(self, state: dict) -> None:
        request = state["request"]
        for conn in state["conns"]:
            conn.outstanding -= 1
        del self._states[request.request_id]
        request.completed_at = self.sim.now
        request.outcome = OUTCOME_OK
        self.requests_completed += 1
        callback = state["on_complete"]
        if callback is not None:
            callback(request)

    # Results -----------------------------------------------------------

    def finalize(self) -> dict:
        base = super().finalize()
        recorder = self.client.latencies
        times, values = recorder.samples()
        base.update(
            requests_sent=self.client.requests_sent,
            requests_submitted=self.requests_submitted,
            requests_completed=self.client.requests_completed,
            outcomes=dict(self.client.outcomes),
            completions=[float(t) for t in times],
            latencies=[float(v) for v in values],
            in_flight=len(self._states),
        )
        if len(recorder):
            base["p50"] = recorder.p50()
            base["p99"] = recorder.p99()
        if self.end_time is not None and self._warmup is not None:
            warmup, duration = self._warmup, self.end_time
            completed = recorder.count(since=warmup, until=duration)
            window = {"completed": completed}
            if completed:
                window.update(
                    throughput=recorder.throughput(warmup, duration),
                    mean=recorder.mean(since=warmup, until=duration),
                    p50=recorder.percentile(50, since=warmup, until=duration),
                    p95=recorder.percentile(95, since=warmup, until=duration),
                    p99=recorder.percentile(99, since=warmup, until=duration),
                )
            base["window"] = window
        return base


class FanoutLeafHost(ShardHost):
    """A shard of leaf services: receives dispatches, returns
    completion stamps."""

    def __init__(
        self,
        *,
        shard_id: int,
        leaf_indices: List[int],
        cluster_size: int,
        slow_fraction: float,
        slow_factor: float,
        mean_service: float,
        seed: int,
        fabric: NetworkFabric,
        lookahead: float,
        stop_at: Optional[float] = None,
    ) -> None:
        sim = Simulator(seed=seed)
        super().__init__(shard_id, sim, lookahead, end_time=stop_at)
        mask = _slow_mask(sim, cluster_size, slow_fraction)
        self._leaves = {
            i: _LeafRuntime(
                sim, i, fabric, mean_service,
                bool(mask[i]), slow_factor, self._remote_emit,
            )
            for i in leaf_indices
        }
        self._done = _DoneBatch(len(self._leaves))

    def _remote_emit(self, leaf_index: int, request_id: int, time: float) -> None:
        flush = self._done.note(request_id, leaf_index, time)
        if flush is not None:
            argmax_leaf, count, at = flush
            self.send(
                0, at, "done", (request_id, argmax_leaf, count),
                priority=PRIORITY_ARRIVAL,
            )

    def handle(self, message) -> None:
        if message.kind != "job":
            raise ShardingError(
                f"leaf shard {self.shard_id} got unexpected message kind "
                f"{message.kind!r} from shard {message.src_shard}"
            )
        request_id, leaf_index, conn_id, seq, size = message.payload
        runtime = self._leaves.get(leaf_index)
        if runtime is None:
            raise ShardingError(
                f"leaf {leaf_index} routed to shard {self.shard_id}, "
                f"which hosts {sorted(self._leaves)}"
            )
        runtime.deliver(request_id, conn_id, seq, size)

    def finalize(self) -> dict:
        base = super().finalize()
        base["jobs_done"] = sum(
            leaf.jobs_done for leaf in self._leaves.values()
        )
        return base


# Picklable builders (process workers import these by reference) --------


def build_fanout_root_host(**kwargs) -> FanoutRootHost:
    """Construct the shard-0 host inside a worker process."""
    return FanoutRootHost(**kwargs)


def build_fanout_leaf_host(**kwargs) -> FanoutLeafHost:
    """Construct a leaf-shard host inside a worker process."""
    return FanoutLeafHost(**kwargs)


def _fanout_specs(
    plan: ShardPlan,
    *,
    cluster_size: int,
    slow_fraction: float,
    slow_factor: float,
    mean_service: float,
    seed: int,
    qps: float,
    fabric: NetworkFabric,
    num_requests: Optional[int] = None,
    stop_at: Optional[float] = None,
    warmup: Optional[float] = None,
) -> Tuple[list, Dict[Tuple[int, int], float]]:
    """Host specs (indexed by shard id) + the lookahead edge map."""
    leaf_shards = [
        plan.assignments[f"leaf-node{i}"] for i in range(cluster_size)
    ]
    common = dict(
        cluster_size=cluster_size,
        slow_fraction=slow_fraction,
        slow_factor=slow_factor,
        mean_service=mean_service,
        seed=seed,
        fabric=fabric,
        lookahead=plan.lookahead,
    )
    specs = [(
        build_fanout_root_host,
        dict(
            common,
            qps=qps,
            leaf_shards=leaf_shards,
            num_requests=num_requests,
            stop_at=stop_at,
            warmup=warmup,
        ),
    )]
    edges: Dict[Tuple[int, int], float] = {}
    for shard in range(1, plan.num_shards):
        indices = [i for i, s in enumerate(leaf_shards) if s == shard]
        specs.append((
            build_fanout_leaf_host,
            dict(
                common,
                shard_id=shard,
                leaf_indices=indices,
                stop_at=stop_at,
            ),
        ))
        edges[(0, shard)] = plan.lookahead
        edges[(shard, 0)] = plan.lookahead
    return specs, edges


def _result_dict(plan, coordinator, results) -> dict:
    root = results[0]
    recovery = getattr(coordinator, "recovery", None)
    return {
        "shards": plan.num_shards,
        "mode": getattr(coordinator, "mode", "inline"),
        "rounds": coordinator.rounds,
        "messages": coordinator.messages_exchanged,
        "stalls": getattr(coordinator, "stalls", 0),
        "straggler_rounds": dict(
            (getattr(coordinator, "runtime", None) or {}).get(
                "straggler_rounds", {}
            )
        ),
        "events_total": sum(r["events"] for r in results),
        "requests_sent": root["requests_sent"],
        "requests": len(root["latencies"]),
        "outcomes": root["outcomes"],
        "latencies": root["latencies"],
        "completions": root["completions"],
        "p50": root.get("p50"),
        "p99": root.get("p99"),
        "window": root.get("window"),
        "fallback_reason": plan.fallback_reason,
        "restarts": recovery["restarts"] if recovery else 0,
        "replayed_rounds": recovery["replayed_rounds"] if recovery else 0,
        "recovery": recovery,
    }


def _shard_chaos(fault_plan, plan: ShardPlan) -> Optional[dict]:
    """``FaultPlan`` -> the coordinator's chaos schedule.

    Only execution-layer (``shard_kill`` / ``shard_hang``) faults are
    meaningful under shards; anything else in the plan is a loud error
    — in-simulation faults are not supported on the sharded fan-out
    world, and silently dropping them would fake a chaos result.
    """
    if fault_plan is None:
        return None
    from ..faults.plan import SHARD_HANG, SHARD_KILL

    chaos: Dict[int, List[Tuple[int, str]]] = {}
    for fault in fault_plan.sorted():
        if fault.kind not in (SHARD_KILL, SHARD_HANG):
            raise ShardingError(
                f"fault kind {fault.kind!r} targets the simulated "
                f"world; the sharded fan-out runner only supports the "
                f"execution-layer kinds shard_kill/shard_hang (run "
                f"in-simulation fault plans with shards=1)"
            )
        plan.validate_shard(fault.shard)
        action = "kill" if fault.kind == SHARD_KILL else "hang"
        chaos.setdefault(int(fault.at), []).append((fault.shard, action))
    return chaos


def measure_fanout_vanilla(
    cluster_size: int,
    slow_fraction: float,
    qps: float = 30.0,
    num_requests: Optional[int] = 300,
    slow_factor: float = 10.0,
    mean_service: float = 1e-3,
    seed: int = 0,
    network: Optional[NetworkFabric] = None,
    stop_at: Optional[float] = None,
    warmup: Optional[float] = None,
    audit: bool = False,
) -> dict:
    """The same measurement on the ordinary single-simulator engine
    (the reference the equivalence tests compare against, and the
    fallback when no positive lookahead exists)."""
    from ..experiments.audit import audit_client
    from ..experiments.tail_at_scale import build_fanout_cluster

    world = build_fanout_cluster(
        cluster_size,
        slow_fraction,
        slow_factor,
        mean_service=mean_service,
        seed=seed,
        network=network,
    )
    client = OpenLoopClient(
        world.sim,
        world.dispatcher,
        arrivals=qps,
        max_requests=num_requests,
        stop_at=stop_at,
    )
    client.start()
    if stop_at is not None:
        world.sim.run(until=stop_at)
    else:
        world.sim.run()
    if audit:
        audit_client(client, world.sim, dispatcher=world.dispatcher)
    recorder = client.latencies
    times, values = recorder.samples()
    result = {
        "shards": 1,
        "mode": "single",
        "rounds": 0,
        "messages": 0,
        "stalls": 0,
        "straggler_rounds": {},
        "events_total": world.sim.events_processed,
        "requests_sent": client.requests_sent,
        "requests": len(recorder),
        "outcomes": dict(client.outcomes),
        "latencies": [float(v) for v in values],
        "completions": [float(t) for t in times],
        "p50": recorder.p50() if len(recorder) else None,
        "p99": recorder.p99() if len(recorder) else None,
        "window": None,
        "fallback_reason": None,
        "restarts": 0,
        "replayed_rounds": 0,
        "recovery": None,
    }
    if stop_at is not None and warmup is not None:
        completed = recorder.count(since=warmup, until=stop_at)
        window = {"completed": completed}
        if completed:
            window.update(
                throughput=recorder.throughput(warmup, stop_at),
                mean=recorder.mean(since=warmup, until=stop_at),
                p50=recorder.percentile(50, since=warmup, until=stop_at),
                p95=recorder.percentile(95, since=warmup, until=stop_at),
                p99=recorder.percentile(99, since=warmup, until=stop_at),
            )
        result["window"] = window
    return result


def measure_fanout_sharded(
    cluster_size: int,
    slow_fraction: float,
    qps: float = 30.0,
    num_requests: Optional[int] = 300,
    slow_factor: float = 10.0,
    mean_service: float = 1e-3,
    seed: int = 0,
    shards: int = 2,
    network: Optional[NetworkFabric] = None,
    mode: str = "auto",
    max_window: Optional[float] = None,
    stop_at: Optional[float] = None,
    warmup: Optional[float] = None,
    audit: bool = False,
    fault_plan=None,
    shard_timeout: Optional[float] = None,
    shard_restarts: Optional[int] = None,
    journal_path=None,
) -> dict:
    """Run the fan-out world across *shards* simulator shards.

    Termination is either count-style (*num_requests*, matching
    ``measure_tail_at_scale``) or duration-style (*stop_at* with an
    optional *warmup* stats window, matching ``measure_at_load``).
    Falls back — loudly, via the planner's ``RuntimeWarning`` — to the
    single-shard engine when the fabric has no positive lookahead, so
    the returned dict always has the same shape.

    *audit* runs the merged cross-shard conservation audit
    (:func:`repro.experiments.audit.audit_sharded_run`) on the
    per-shard finalize counters. *fault_plan* may carry
    ``shard_kill``/``shard_hang`` faults (execution-layer chaos: the
    supervisor must recover and the results must not change);
    *shard_timeout*, *shard_restarts* and *journal_path* tune the
    supervision layer (see :func:`repro.shard.worker.run_sharded`).
    """
    if num_requests is None and stop_at is None:
        raise ShardingError(
            "measure_fanout_sharded needs num_requests and/or stop_at"
        )
    fabric = network if network is not None else NetworkFabric()
    plan = plan_fanout_shards(cluster_size, shards, fabric)
    if not plan.sharded:
        if fault_plan is not None and len(fault_plan):
            raise ShardingError(
                f"fault plan carries {len(fault_plan)} shard fault(s) "
                f"but the run is not sharded"
                + (
                    f" ({plan.fallback_reason})"
                    if plan.fallback_reason
                    else ""
                )
            )
        result = measure_fanout_vanilla(
            cluster_size,
            slow_fraction,
            qps=qps,
            num_requests=num_requests,
            slow_factor=slow_factor,
            mean_service=mean_service,
            seed=seed,
            network=fabric,
            stop_at=stop_at,
            warmup=warmup,
            audit=audit,
        )
        result["fallback_reason"] = plan.fallback_reason
        return result
    chaos = _shard_chaos(fault_plan, plan)
    specs, edges = _fanout_specs(
        plan,
        cluster_size=cluster_size,
        slow_fraction=slow_fraction,
        slow_factor=slow_factor,
        mean_service=mean_service,
        seed=seed,
        qps=qps,
        fabric=fabric,
        num_requests=num_requests,
        stop_at=stop_at,
        warmup=warmup,
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
            results,
            messages_exchanged=coordinator.messages_exchanged,
        )
    return _result_dict(plan, coordinator, results)


def fanout_sharded_load_point(
    qps: float,
    duration: float,
    warmup: float,
    seed: int,
    shards: int,
    *,
    cluster_size: int,
    slow_fraction: float = 0.0,
    slow_factor: float = 10.0,
    mean_service: float = 1e-3,
    network: Optional[NetworkFabric] = None,
    mode: str = "auto",
    max_window: Optional[float] = None,
    audit: bool = False,
    fault_plan=None,
    shard_timeout: Optional[float] = None,
    shard_restarts: Optional[int] = None,
    journal_path=None,
):
    """``measure_at_load``-compatible sharded runner for the fan-out
    world (attached to ``build_fanout_cluster.sharded_runner``).

    *seed* arrives already derived per load point; returns a
    :class:`~repro.experiments.loadsweep.SweepPoint` with statistics
    over the post-warmup window, wedge semantics included.
    ``shard_recovery`` is populated only when workers actually had to
    be restarted, so an unfaulted sharded point stays equal to its
    vanilla twin.
    """
    from ..experiments.loadsweep import SweepPoint

    result = measure_fanout_sharded(
        cluster_size,
        slow_fraction,
        qps=qps,
        num_requests=None,
        slow_factor=slow_factor,
        mean_service=mean_service,
        seed=seed,
        shards=shards,
        network=network,
        mode=mode,
        max_window=max_window,
        stop_at=duration,
        warmup=warmup,
        audit=audit,
        fault_plan=fault_plan,
        shard_timeout=shard_timeout,
        shard_restarts=shard_restarts,
        journal_path=journal_path,
    )
    recovery = result["recovery"] if result["restarts"] else None
    window = result["window"] or {"completed": 0}
    if not window["completed"]:
        point = SweepPoint(qps, 0.0, float("inf"), float("inf"),
                           float("inf"), float("inf"), 0,
                           shard_recovery=recovery)
    else:
        point = SweepPoint(
            offered_qps=qps,
            throughput=window["throughput"],
            mean=window["mean"],
            p50=window["p50"],
            p95=window["p95"],
            p99=window["p99"],
            completed=window["completed"],
            shard_recovery=recovery,
        )
    # Non-declared attribute: dataclass equality ignores it, so the
    # sharded-vs-vanilla identity contracts are untouched (and journal
    # round-trips simply drop it).
    point.shard_sync = shard_sync_counters(result)
    return point


def shard_sync_counters(result: dict) -> dict:
    """The coordinator counters of a :func:`measure_fanout_sharded`
    result, in the ``shard_sync`` shape that
    :func:`repro.experiments.loadsweep.shard_sync_manifest_summary`
    aggregates into run manifests."""
    return {
        "shards": result["shards"],
        "mode": result["mode"],
        "rounds": result["rounds"],
        "messages_exchanged": result["messages"],
        "stalls": result.get("stalls", 0),
        "restarts": result["restarts"],
        "per_shard_restarts": {
            str(shard): info.get("restarts", 0)
            for shard, info in (
                (result["recovery"] or {}).get("per_shard") or {}
            ).items()
        },
        "straggler_rounds": dict(result.get("straggler_rounds", {})),
    }


__all__ = [
    "AGG_MACHINE",
    "CLIENT_MACHINE",
    "FanoutLeafHost",
    "FanoutRootHost",
    "build_fanout_leaf_host",
    "build_fanout_root_host",
    "fanout_machines",
    "fanout_sharded_load_point",
    "measure_fanout_sharded",
    "measure_fanout_vanilla",
    "plan_fanout_shards",
    "shard_sync_counters",
]
