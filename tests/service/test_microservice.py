"""Behavioural tests for the Microservice dispatch loop."""

import pytest

from repro.distributions import Deterministic
from repro.engine import Simulator
from repro.errors import ConfigError
from repro.hardware import GHZ
from repro.service import (
    Connection,
    EpollQueue,
    ExecutionPath,
    IoDevice,
    Job,
    Microservice,
    MultiThreadedModel,
    PathSelector,
    Request,
    SingleQueue,
    Stage,
)

from .conftest import make_cores, single_stage_service


def send(svc, sim, n=1, conn=None, size=0.0, at=None):
    """Accept n jobs and collect their completion times."""
    done = []
    for _ in range(n):
        job = Job(Request(sim.now), size_bytes=size, connection=conn)
        job.on_complete = lambda j: done.append((j, sim.now))
        svc.accept(job)
    return done


class TestSingleStage:
    def test_one_job_takes_service_time(self, sim):
        svc = single_stage_service(sim, service_time=1e-3)
        done = send(svc, sim)
        sim.run()
        assert len(done) == 1
        assert done[0][1] == pytest.approx(1e-3)

    def test_jobs_serialise_on_one_core(self, sim):
        svc = single_stage_service(sim, service_time=1e-3, cores=1)
        done = send(svc, sim, n=3)
        sim.run()
        assert [t for _, t in done] == pytest.approx([1e-3, 2e-3, 3e-3])

    def test_two_cores_run_in_parallel(self, sim):
        svc = single_stage_service(sim, service_time=1e-3, cores=2)
        done = send(svc, sim, n=2)
        sim.run()
        assert [t for _, t in done] == pytest.approx([1e-3, 1e-3])

    def test_counters(self, sim):
        svc = single_stage_service(sim)
        send(svc, sim, n=5)
        sim.run()
        assert svc.jobs_accepted == 5
        assert svc.jobs_completed == 5
        assert svc.queued_jobs == 0

    def test_job_latency_fields(self, sim):
        svc = single_stage_service(sim, service_time=2e-3)
        done = send(svc, sim, n=2)
        sim.run()
        first, second = done[0][0], done[1][0]
        assert first.service_latency == pytest.approx(2e-3)
        # The second job waited for the first: latency includes queueing.
        assert second.service_latency == pytest.approx(4e-3)


class TestMultiStagePipeline:
    def make_two_stage(self, sim, t0=1e-3, t1=2e-3, cores=2):
        stages = [
            Stage("parse", 0, SingleQueue(), base=Deterministic(t0)),
            Stage("respond", 1, SingleQueue(), base=Deterministic(t1)),
        ]
        selector = PathSelector([ExecutionPath(0, "p", [0, 1])])
        return Microservice("svc", sim, stages, selector, make_cores(cores))

    def test_stages_run_in_sequence(self, sim):
        svc = self.make_two_stage(sim)
        done = send(svc, sim)
        sim.run()
        assert done[0][1] == pytest.approx(3e-3)

    def test_pipeline_overlaps_jobs(self, sim):
        # With 2 cores the two jobs run fully in parallel (2ms each);
        # serial execution would need 4ms.
        svc = self.make_two_stage(sim, t0=1e-3, t1=1e-3, cores=2)
        done = send(svc, sim, n=2)
        sim.run()
        times = sorted(t for _, t in done)
        assert times == pytest.approx([2e-3, 2e-3])

    def test_later_stages_drain_first(self, sim):
        # One core: once A finishes stage0, the scheduler must prefer
        # A.stage1 over B.stage0 (run-to-completion bias).
        svc = self.make_two_stage(sim, t0=1e-3, t1=1e-3, cores=1)
        done = send(svc, sim, n=2)
        sim.run()
        first_done = min(t for _, t in done)
        assert first_done == pytest.approx(2e-3)

    def test_path_subset_of_stages(self, sim):
        stages = [
            Stage("a", 0, SingleQueue(), base=Deterministic(1e-3)),
            Stage("b", 1, SingleQueue(), base=Deterministic(10.0)),
            Stage("c", 2, SingleQueue(), base=Deterministic(1e-3)),
        ]
        selector = PathSelector([ExecutionPath(0, "skip-b", [0, 2])])
        svc = Microservice("svc", sim, stages, selector, make_cores(1))
        done = send(svc, sim)
        sim.run()
        assert done[0][1] == pytest.approx(2e-3)


class TestBatching:
    def make_epoll_service(self, sim, base=10e-6, per_job=1e-6):
        stages = [
            Stage(
                "epoll", 0, EpollQueue(per_connection_limit=None),
                base=Deterministic(base), per_job=Deterministic(per_job),
                batching=True,
            ),
            Stage("proc", 1, SingleQueue(), base=Deterministic(5e-6)),
        ]
        selector = PathSelector([ExecutionPath(0, "p", [0, 1])])
        return Microservice("svc", sim, stages, selector, make_cores(1))

    def test_epoll_amortises_base_cost(self, sim):
        svc = self.make_epoll_service(sim)
        conn = Connection()
        send(svc, sim, n=10, conn=conn)
        sim.run()
        epoll = svc.stage(0)
        # The first job dispatches alone (epoll wakes immediately); the
        # nine that arrived while it ran share a single second batch.
        assert epoll.invocations == 2
        assert epoll.jobs_processed == 10

    def test_epoll_cost_scales_with_events(self, sim):
        svc = self.make_epoll_service(sim, base=10e-6, per_job=1e-6)
        conn = Connection()
        done = send(svc, sim, n=4, conn=conn)
        sim.run()
        # Timeline on 1 core: epoll(1)=11us, proc=5us (deeper stage
        # preferred), epoll(3)=13us, then 3 x proc at 5us.
        assert max(t for _, t in done) == pytest.approx(
            11e-6 + 5e-6 + 13e-6 + 3 * 5e-6
        )


class TestConnectionBlockingInService:
    def test_blocked_connection_stalls_jobs(self, sim):
        svc = single_stage_service(sim, service_time=1e-3)
        conn = Connection()
        conn.block(request_id=999)
        done = send(svc, sim, conn=conn)
        sim.run(until=0.05)
        assert done == []
        conn.unblock(request_id=999)
        sim.run()
        assert len(done) == 1

    def test_unblock_kicks_dispatch(self, sim):
        svc = single_stage_service(sim, service_time=1e-3)
        conn = Connection()
        conn.block(request_id=1)
        done = send(svc, sim, conn=conn)
        sim.schedule(0.01, conn.unblock, 1)
        sim.run()
        assert done[0][1] == pytest.approx(0.011)

    def test_cancelling_a_hidden_head_exposes_the_holders_job(self, sim):
        # A connection subqueue whose head is hidden hides the block
        # holder's job queued behind it. Withdrawing the head exposes
        # that job, and the next core release must start it.
        stage = Stage("epoll", 0, EpollQueue(), base=Deterministic(1e-3))
        svc = Microservice(
            "svc", sim, [stage],
            PathSelector([ExecutionPath(0, "p", [0])]), make_cores(1),
        )
        first = send(svc, sim, conn=Connection())
        conn = Connection()
        other, holder = Job(Request(0.0), connection=conn), Request(0.0)
        conn.block(holder.request_id)
        svc.accept(other)
        done = []
        held = Job(holder, connection=conn)
        held.on_complete = lambda j: done.append(sim.now)
        svc.accept(held)
        sim.schedule(0.5e-3, svc.cancel_job, other)
        sim.run()
        assert first[0][1] == pytest.approx(1e-3)
        assert done == [pytest.approx(2e-3)]


class TestMultiThreadedService:
    def test_thread_limit_caps_concurrency(self, sim):
        model = MultiThreadedModel(1, context_switch=0.0)
        svc = single_stage_service(sim, service_time=1e-3, cores=4, model=model)
        done = send(svc, sim, n=3)
        sim.run()
        # 4 cores but 1 thread: strictly serial.
        assert [t for _, t in done] == pytest.approx([1e-3, 2e-3, 3e-3])

    def test_context_switch_inflates_service_time(self, sim):
        model = MultiThreadedModel(2, context_switch=100e-6)
        svc = single_stage_service(sim, service_time=1e-3, cores=1, model=model)
        done = send(svc, sim, n=2)
        sim.run()
        # Second dispatch runs a different thread on the same core.
        assert done[1][1] == pytest.approx(2e-3 + 100e-6)


class TestIoStages:
    def test_io_stage_releases_core_during_io(self, sim):
        # Stage: 1ms CPU then 10ms disk. With one core, job B's CPU
        # phase overlaps job A's disk phase.
        disk = IoDevice("disk", sim, channels=4)
        stages = [
            Stage(
                "query", 0, SingleQueue(),
                base=Deterministic(1e-3), io=Deterministic(10e-3),
            ),
        ]
        selector = PathSelector([ExecutionPath(0, "p", [0])])
        svc = Microservice(
            "mongo", sim, stages, selector, make_cores(1), io_device=disk,
            model=MultiThreadedModel(4, context_switch=0.0),
        )
        done = send(svc, sim, n=2)
        sim.run()
        times = sorted(t for _, t in done)
        assert times[0] == pytest.approx(11e-3)
        assert times[1] == pytest.approx(12e-3)  # CPU serialised, disk parallel

    def test_io_stage_without_device_raises(self, sim):
        stages = [
            Stage(
                "query", 0, SingleQueue(),
                base=Deterministic(1e-3), io=Deterministic(1e-3),
            ),
        ]
        selector = PathSelector([ExecutionPath(0, "p", [0])])
        # Refused when the instance is built, not at the first I/O.
        with pytest.raises(ConfigError, match="io_device"):
            Microservice("svc", sim, stages, selector, make_cores(1))

    def test_single_channel_disk_saturates(self, sim):
        disk = IoDevice("disk", sim, channels=1)
        stages = [
            Stage(
                "query", 0, SingleQueue(),
                base=Deterministic(1e-6), io=Deterministic(10e-3),
            ),
        ]
        selector = PathSelector([ExecutionPath(0, "p", [0])])
        svc = Microservice(
            "mongo", sim, stages, selector, make_cores(2), io_device=disk,
            model=MultiThreadedModel(8, context_switch=0.0),
        )
        done = send(svc, sim, n=3)
        sim.run()
        # Disk serialises: ~10, ~20, ~30 ms.
        times = sorted(t for _, t in done)
        assert times[2] == pytest.approx(30e-3, rel=0.01)


class TestCrashDuringIo:
    """A crash fails the jobs of a batch blocked on I/O at the crash
    instant and frees its worker; the disk still finishes the
    operation, and that completion does nothing."""

    def io_service(self, sim):
        disk = IoDevice("disk", sim, channels=1)
        stages = [
            Stage(
                "query", 0, SingleQueue(),
                base=Deterministic(1e-3), io=Deterministic(5e-3),
            ),
        ]
        selector = PathSelector([ExecutionPath(0, "p", [0])])
        return Microservice(
            "mongo", sim, stages, selector, make_cores(1), io_device=disk,
            model=MultiThreadedModel(1, context_switch=0.0),
        )

    def submit(self, svc, sim):
        seen = {"fail": [], "discard": [], "complete": []}
        job = Job(Request(sim.now))
        job.on_fail = lambda j: seen["fail"].append(sim.now)
        job.on_discard = lambda j: seen["discard"].append(sim.now)
        job.on_complete = lambda j: seen["complete"].append(sim.now)
        svc.accept(job)
        return seen

    @pytest.mark.parametrize("recover", [False, True])
    def test_job_in_io_fails_at_the_crash(self, sim, recover):
        svc = self.io_service(sim)
        seen = self.submit(svc, sim)
        sim.schedule(2e-3, svc.crash)
        if recover:
            sim.schedule(3e-3, svc.recover)
        sim.run()
        assert seen["fail"] == [pytest.approx(2e-3)]
        assert seen["complete"] == []
        assert svc.jobs_failed == 1
        assert svc.io_device.ops_completed == 1  # the disk finished it

    def test_worker_is_idle_after_the_crash(self, sim):
        svc = self.io_service(sim)
        self.submit(svc, sim)
        sim.schedule(2e-3, svc.crash)
        probes = []
        sim.schedule(2.5e-3, lambda: probes.append(
            (svc.model.idle_threads, svc.io_device.in_flight,
             len(svc._running))
        ))
        sim.run()
        # Worker back in the pool; the disk channel stays busy until
        # the operation ends at 6 ms.
        assert probes == [(1, 1, 0)]
        assert svc.io_device.in_flight == 0

    def test_drop_discards_without_failing(self, sim):
        svc = self.io_service(sim)
        seen = self.submit(svc, sim)
        sim.schedule(2e-3, svc.crash, "drop")
        sim.run()
        assert seen["discard"] == [pytest.approx(2e-3)]
        assert seen["fail"] == []
        assert seen["complete"] == []


class TestDvfsEffect:
    def test_lower_frequency_slows_service(self, sim):
        svc = single_stage_service(sim, service_time=1e-3)
        svc.set_frequency(1.2 * GHZ)
        done = send(svc, sim)
        sim.run()
        expected = 1e-3 * 2.6 / 1.2
        assert done[0][1] == pytest.approx(expected, rel=1e-6)

    def test_frequency_roundtrip(self, sim):
        svc = single_stage_service(sim)
        assert svc.frequency == 2.6 * GHZ
        svc.set_frequency(1.2 * GHZ)
        assert svc.frequency == 1.2 * GHZ


class TestValidation:
    def test_duplicate_stage_ids_rejected(self, sim):
        stages = [
            Stage("a", 0, SingleQueue(), base=Deterministic(1e-3)),
            Stage("b", 0, SingleQueue(), base=Deterministic(1e-3)),
        ]
        selector = PathSelector([ExecutionPath(0, "p", [0])])
        with pytest.raises(ConfigError):
            Microservice("svc", sim, stages, selector, make_cores(1))

    def test_path_referencing_unknown_stage_rejected(self, sim):
        stages = [Stage("a", 0, SingleQueue(), base=Deterministic(1e-3))]
        selector = PathSelector([ExecutionPath(0, "p", [0, 7])])
        with pytest.raises(ConfigError):
            Microservice("svc", sim, stages, selector, make_cores(1))

    def test_no_stages_rejected(self, sim):
        selector = PathSelector([ExecutionPath(0, "p", [0])])
        with pytest.raises(ConfigError):
            Microservice("svc", sim, [], selector, make_cores(1))

    def test_completion_listener_called(self, sim):
        svc = single_stage_service(sim)
        seen = []
        svc.on_job_complete(lambda j: seen.append(j.job_id))
        send(svc, sim, n=2)
        sim.run()
        assert len(seen) == 2


class TestPathStream:
    """``service/{name}`` is derived only when the path choice draws."""

    def test_single_path_service_derives_no_stream(self, sim):
        single_stage_service(sim, name="one")
        assert "service/one" not in sim.random
        # Its one stage costs a Deterministic time, which never draws.
        assert "service/one/stage0/base" not in sim.random

    def test_probabilistic_selector_keeps_its_path_sequence(self, sim):
        stages = [Stage("a", 0, SingleQueue(), base=Deterministic(1e-6))]
        paths = [ExecutionPath(0, "hit", [0]), ExecutionPath(1, "miss", [0])]
        probabilities = {0: 0.7, 1: 0.3}
        svc = Microservice(
            "mc", sim, stages, PathSelector(paths, probabilities),
            make_cores(1, "mc"),
        )
        assert "service/mc" in sim.random
        jobs = [Job(Request(0.0)) for _ in range(200)]
        for job in jobs:
            svc.accept(job)
        # The same draws from a fresh stream of the same name and seed.
        rng = Simulator(seed=0).random.stream("service/mc")
        reference = PathSelector(paths, probabilities)
        expected = [reference.select(rng).path_id for _ in jobs]
        assert [job.path.path_id for job in jobs] == expected
        assert 0 < expected.count(1) < len(expected)
