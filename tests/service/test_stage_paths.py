"""Tests for stage cost model, execution paths, and path selection."""

import numpy as np
import pytest

from repro.distributions import (
    Deterministic,
    Erlang,
    Exponential,
    FrequencyTable,
)
from repro.engine import RandomStreams
from repro.errors import ConfigError
from repro.hardware import GHZ, CoreSet, CpuCore, DvfsLadder
from repro.service import (
    Connection,
    ExecutionPath,
    Job,
    PathSelector,
    Request,
    SingleQueue,
    Stage,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def jobs(n, size=0.0):
    return [Job(Request(0.0), size_bytes=size) for _ in range(n)]


def attached(stage, seed=0):
    """*stage* with its cost samplers bound, as a Microservice binds them."""
    stage.attach_samplers(RandomStreams(seed), "stage")
    return stage


class TestStageCost:
    def test_base_cost_independent_of_batch(self):
        stage = attached(Stage("epoll", 0, SingleQueue(), base=Deterministic(10e-6)))
        assert stage.compute_cost(jobs(1), 2.6 * GHZ) == pytest.approx(10e-6)
        assert stage.compute_cost(jobs(7), 2.6 * GHZ) == pytest.approx(10e-6)

    def test_per_job_cost_linear_in_batch(self):
        stage = attached(Stage(
            "epoll", 0, SingleQueue(),
            base=Deterministic(10e-6), per_job=Deterministic(2e-6),
        ))
        assert stage.compute_cost(jobs(5), 2.6 * GHZ) == pytest.approx(
            10e-6 + 5 * 2e-6
        )

    def test_per_byte_cost_proportional_to_bytes(self):
        stage = attached(Stage(
            "socket_read", 0, SingleQueue(), per_byte=Deterministic(1e-9)
        ))
        batch = jobs(2, size=500)
        assert stage.compute_cost(batch, 2.6 * GHZ) == pytest.approx(1e-6)

    def test_frequency_scaling(self):
        table = FrequencyTable.single(Deterministic(10e-6), 2.6 * GHZ)
        stage = attached(Stage("proc", 0, SingleQueue(), base=table))
        slow = stage.compute_cost(jobs(1), 1.3 * GHZ)
        assert slow == pytest.approx(20e-6)

    def test_profiled_points_draw_block_independently(self):
        # Each profiled point of a term draws from its own named stream,
        # so DVFS switches between them cannot make costs depend on the
        # sampler block size.
        table = FrequencyTable(
            {1.0 * GHZ: Exponential(2e-3), 2.0 * GHZ: Exponential(1e-3)}
        )

        def costs(block):
            stage = Stage("proc", 0, SingleQueue(), base=table)
            stage.attach_samplers(RandomStreams(4), "stage", block=block)
            return [stage.compute_cost(jobs(1), f * GHZ)
                    for f in (2.0, 1.0, 2.0, 1.0) * 5]

        assert costs(4) == costs(8)

    def test_io_cost_sums_over_batch(self):
        stage = attached(Stage(
            "disk", 0, SingleQueue(),
            base=Deterministic(1e-6), io=Deterministic(5e-3),
        ))
        assert stage.io_cost(jobs(3)) == pytest.approx(15e-3)

    def test_io_cost_zero_without_io(self):
        stage = attached(Stage("proc", 0, SingleQueue(), base=Deterministic(1e-6)))
        assert stage.io_cost(jobs(3)) == 0.0

    def test_mean_cost_folds_terms(self):
        stage = Stage(
            "s", 0, SingleQueue(),
            base=Deterministic(10e-6),
            per_job=Deterministic(1e-6),
            per_byte=Deterministic(1e-9),
        )
        mean = stage.mean_cost(batch_size=4, mean_bytes=1000)
        assert mean == pytest.approx(10e-6 + 4e-6 + 4e-6)

    def test_empty_batch_rejected(self):
        stage = attached(Stage("s", 0, SingleQueue(), base=Deterministic(1e-6)))
        with pytest.raises(ConfigError):
            stage.compute_cost([], 2.6 * GHZ)

    def test_never_attached_stage_raises(self):
        stage = Stage(
            "s", 0, SingleQueue(),
            base=Deterministic(1e-6), io=Deterministic(5e-3),
        )
        with pytest.raises(ConfigError, match="attach_samplers"):
            stage.compute_cost(jobs(1), 2.6 * GHZ)
        with pytest.raises(ConfigError, match="attach_samplers"):
            stage.io_cost(jobs(2))

    def test_stage_without_costs_rejected(self):
        with pytest.raises(ConfigError):
            Stage("empty", 0, SingleQueue())


class TestStageCostIdentity:
    """Attached samplers return, draw for draw, what scalar reference
    draws on twin streams of the same names give."""

    SEED = 7

    def twin(self, term):
        return RandomStreams(self.SEED).stream(f"stage/{term}")

    def test_per_term_draws_match_scalar_reference(self):
        base = FrequencyTable.single(
            Exponential(3e-6), 2.6 * GHZ, compute_fraction=0.8
        )
        per_job = FrequencyTable.single(Exponential(1e-6), 2.6 * GHZ)
        per_byte = FrequencyTable.single(Exponential(2e-9), 2.6 * GHZ)
        io = Exponential(50e-6)
        stage = attached(Stage(
            "s", 0, SingleQueue(),
            base=base, per_job=per_job, per_byte=per_byte, io=io,
        ), seed=self.SEED)
        rng = {t: self.twin(t) for t in ("base", "per_job", "per_byte", "io")}
        # (batch size, bytes per job, frequency): a batch of 1 and of 5,
        # a zero-byte batch (no per-byte draw), and DVFS moving off the
        # profiled frequency and back mid-sequence.
        steps = [
            (1, 100.0, 2.6 * GHZ),
            (5, 40.0, 2.6 * GHZ),
            (3, 0.0, 2.6 * GHZ),
            (1, 0.0, 2.0 * GHZ),
            (5, 10.0, 1.3 * GHZ),
            (1, 64.0, 2.6 * GHZ),
        ]
        for n, size, freq in steps:
            batch = jobs(n, size=size)
            expected = base.sample(rng["base"], freq)
            if n == 1:
                expected += per_job.sample(rng["per_job"], freq)
            else:
                expected += sum(
                    per_job.sample(rng["per_job"], freq) for _ in range(n)
                )
            total_bytes = sum(job.size_bytes for job in batch)
            if total_bytes > 0:
                expected += per_byte.sample(rng["per_byte"], freq) * total_bytes
            assert stage.compute_cost(batch, freq) == expected
            expected_io = sum(io.sample(rng["io"]) for _ in range(n))
            assert stage.io_cost(batch) == expected_io


class TestFixedCostIdentity:
    """A term that never draws is costed from its fixed-value table,
    bit for bit what the term's sampler serves on twin streams."""

    SEED = 11
    BASE = FrequencyTable(
        {1.3 * GHZ: Deterministic(4e-6), 2.6 * GHZ: Deterministic(2e-6)},
        compute_fraction=0.7,
    )
    PER_JOB = FrequencyTable.single(Erlang(3, 1e-6), 2.6 * GHZ)
    PER_BYTE = FrequencyTable.single(
        Deterministic(3e-9), 2.6 * GHZ, compute_fraction=0.9
    )

    def sampler_cost(self, samplers, batch, frequency):
        """What ``Stage.compute_cost`` returns with every term served
        by its sampler."""
        base, per_job, per_byte = samplers
        cost = 0.0
        if base is not None:
            cost += base.sample(frequency)
        if per_job is not None:
            n = len(batch)
            cost += per_job.sample(frequency) if n == 1 else sum(
                per_job.take(n, frequency)
            )
        if per_byte is not None:
            total_bytes = sum(job.size_bytes for job in batch)
            if total_bytes > 0:
                cost += per_byte.sample(frequency) * total_bytes
        return cost

    def twin_samplers(self, terms):
        streams = RandomStreams(self.SEED)

        def sampler(table, term):
            if table is None:
                return None

            def rng(name, dist):
                drawn = not isinstance(dist, Deterministic)
                return streams.stream(name) if drawn else None

            name = f"stage/{term}"
            return table.make_sampler(
                rng(name, table.at(table.frequencies[-1])),
                point_rng=lambda point: rng(f"{name}@{point!r}",
                                            table.at(point)),
            )

        return [sampler(table, term) for table, term in
                zip(terms, ("base", "per_job", "per_byte"))]

    @pytest.mark.parametrize("terms", [
        (BASE, None, PER_BYTE),
        (BASE, PER_JOB, None),
        (None, FrequencyTable.single(Deterministic(1.1e-6), 2.6 * GHZ),
         PER_BYTE),
        (BASE, PER_JOB, PER_BYTE),
    ], ids=["fixed", "mixed", "fixed-per-job", "all-terms"])
    def test_costs_match_the_sampler_path(self, terms):
        base, per_job, per_byte = terms
        stage = attached(Stage(
            "s", 0, SingleQueue(),
            base=base, per_job=per_job, per_byte=per_byte,
        ), seed=self.SEED)
        samplers = self.twin_samplers(terms)
        ladder = DvfsLadder([1.2 * GHZ, 1.3 * GHZ, 2.0 * GHZ, 2.6 * GHZ])
        cores = CoreSet("s", [CpuCore("m/cpu0", ladder, 2.6 * GHZ)])
        # (DVFS step before the cost or None, batch size, bytes per
        # job): batches of 1 and 5, zero and non-zero bytes, the two
        # profiled points, and unprofiled points (scale factor != 1)
        # switched to in the middle of the sequence. A batch of 7
        # copies of 1.1e-6 sums to other bits than 7 * 1.1e-6.
        steps = [
            (None, 1, 100.0), (None, 5, 40.0), (None, 1, 0.0),
            (None, 7, 0.0),
            (2.0 * GHZ, 5, 0.0), (None, 1, 64.0), (1.3 * GHZ, 1, 8.0),
            (None, 5, 12.0), (1.2 * GHZ, 1, 30.0), (None, 5, 1.0),
            (2.6 * GHZ, 5, 40.0), (2.0 * GHZ, 1, 100.0),
        ]
        for step, n, size in steps:
            if step is not None:
                cores.set_frequency(step)
            batch = jobs(n, size=size)
            frequency = cores.frequency
            expected = self.sampler_cost(samplers, batch, frequency)
            assert stage.compute_cost(batch, frequency) == expected

    def test_fixed_terms_skip_the_sampler_after_the_first_cost(self):
        stage = attached(Stage(
            "s", 0, SingleQueue(), base=self.BASE, per_job=self.PER_JOB,
            per_byte=self.PER_BYTE,
        ))
        for frequency in (2.6 * GHZ, 2.0 * GHZ, 2.6 * GHZ, 2.0 * GHZ):
            stage.compute_cost(jobs(2, size=10.0), frequency)
        assert set(stage._base_fixed) == {2.0 * GHZ, 2.6 * GHZ}
        assert set(stage._per_byte_fixed) == {2.0 * GHZ, 2.6 * GHZ}
        assert stage._per_job_fixed is None  # Erlang draws

    def test_a_table_that_draws_at_any_point_gets_no_fixed_table(self):
        table = FrequencyTable(
            {1.3 * GHZ: Exponential(4e-6), 2.6 * GHZ: Deterministic(2e-6)}
        )
        stage = attached(Stage("s", 0, SingleQueue(), base=table))
        assert stage._base_fixed is None


class TestStageStreams:
    """A stage derives a named stream only for a cost term that draws."""

    PREFIX = "service/svc/stage0"
    TERMS = ("base", "per_job", "per_byte", "io")

    def test_deterministic_terms_derive_no_stream(self):
        streams = RandomStreams(3)
        stage = Stage(
            "s", 0, SingleQueue(), base=Deterministic(5e-6),
            per_job=Deterministic(1e-6), per_byte=Deterministic(1e-9),
            io=Deterministic(20e-6),
        )
        stage.attach_samplers(streams, self.PREFIX)
        assert not [t for t in self.TERMS if f"{self.PREFIX}/{t}" in streams]
        assert stage.compute_cost(jobs(2, size=100.0), 2.6 * GHZ) == (
            pytest.approx(5e-6 + 2 * 1e-6 + 200 * 1e-9)
        )
        assert stage.io_cost(jobs(2)) == pytest.approx(40e-6)

    def test_stochastic_term_draws_its_fresh_named_stream(self):
        streams = RandomStreams(3)
        stage = Stage(
            "s", 0, SingleQueue(), base=Exponential(5e-6),
            per_job=Deterministic(1e-6),
        )
        stage.attach_samplers(streams, self.PREFIX)
        assert f"{self.PREFIX}/per_job" not in streams
        fresh = RandomStreams(3).stream(f"{self.PREFIX}/base")
        expected = [Exponential(5e-6).sample(fresh) + 1e-6 for _ in range(5)]
        assert [
            stage.compute_cost(jobs(1), 2.6 * GHZ) for _ in range(5)
        ] == expected


class TestExecutionPath:
    def test_basic(self):
        path = ExecutionPath(0, "read", [0, 1, 2, 3])
        assert len(path) == 4
        assert path.stage_ids == [0, 1, 2, 3]

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            ExecutionPath(0, "empty", [])


class TestPathSelector:
    def test_single_path_needs_no_probabilities(self, rng):
        selector = PathSelector([ExecutionPath(0, "only", [0])])
        assert selector.select(rng).name == "only"

    def test_explicit_path_id(self, rng):
        selector = PathSelector(
            [ExecutionPath(0, "read", [0]), ExecutionPath(1, "write", [0])],
            probabilities={0: 0.5, 1: 0.5},
        )
        assert selector.select(rng, path_id=1).name == "write"

    def test_explicit_path_name(self, rng):
        selector = PathSelector(
            [ExecutionPath(0, "read", [0]), ExecutionPath(1, "write", [0])],
            probabilities={0: 1.0, 1: 0.0},
        )
        assert selector.select(rng, path_name="write").name == "write"

    def test_probabilistic_split(self, rng):
        # MongoDB-style hit/miss state machine.
        selector = PathSelector(
            [ExecutionPath(0, "hit", [0]), ExecutionPath(1, "miss", [0])],
            probabilities={0: 0.8, 1: 0.2},
        )
        names = [selector.select(rng).name for _ in range(10_000)]
        miss_rate = names.count("miss") / len(names)
        assert miss_rate == pytest.approx(0.2, abs=0.02)

    def test_multiple_paths_without_probabilities_rejected(self, rng):
        selector = PathSelector(
            [ExecutionPath(0, "a", [0]), ExecutionPath(1, "b", [0])]
        )
        with pytest.raises(ConfigError):
            selector.select(rng)

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            PathSelector(
                [ExecutionPath(0, "a", [0])], probabilities={0: 0.9}
            )

    def test_unknown_path_in_probabilities(self):
        with pytest.raises(ConfigError):
            PathSelector(
                [ExecutionPath(0, "a", [0])], probabilities={5: 1.0}
            )

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError):
            PathSelector(
                [ExecutionPath(0, "a", [0]), ExecutionPath(0, "b", [0])]
            )

    def test_unknown_lookup_rejected(self):
        selector = PathSelector([ExecutionPath(0, "a", [0])])
        with pytest.raises(ConfigError):
            selector.get(4)
        with pytest.raises(ConfigError):
            selector.get_by_name("zzz")


class TestConnectionBlocking:
    def test_block_unblock_by_owner(self):
        conn = Connection()
        conn.block(request_id=1)
        assert conn.blocked
        assert conn.holder == 1
        conn.unblock(request_id=2)  # not the owner: ignored
        assert conn.blocked
        conn.unblock(request_id=1)
        assert not conn.blocked
        assert conn.holder is None

    def test_blocks_queue_in_fifo_order(self):
        conn = Connection()
        conn.block(1)
        conn.block(2)  # queues behind request 1
        conn.block(3)
        assert conn.holder == 1
        conn.unblock(1)
        assert conn.holder == 2
        conn.unblock(2)
        assert conn.holder == 3
        conn.unblock(3)
        assert not conn.blocked

    def test_same_request_blocking_twice_rejected(self):
        from repro.errors import TopologyError

        conn = Connection()
        conn.block(1)
        with pytest.raises(TopologyError):
            conn.block(1)
        conn.block(2)
        with pytest.raises(TopologyError):
            conn.block(2)  # already waiting

    def test_unblock_fires_callbacks(self):
        conn = Connection()
        calls = []
        conn.on_unblock(lambda: calls.append(1))
        conn.block(1)
        conn.unblock(1)
        assert calls == [1]

    def test_handover_to_waiter_fires_callbacks(self):
        conn = Connection()
        calls = []
        conn.on_unblock(lambda: calls.append(1))
        conn.block(1)
        conn.block(2)
        conn.unblock(1)  # still blocked (by 2) but visibility changed
        assert conn.blocked
        assert calls == [1]

    def test_unblock_when_open_is_noop(self):
        conn = Connection()
        calls = []
        conn.on_unblock(lambda: calls.append(1))
        conn.unblock(1)
        assert calls == []
