"""Harness tests at tiny sizes: ``PYTHONPATH=src python -m pytest benchmarks/perf -q``."""

import json
import time

import pytest

from benchmarks.perf import child, harness, kernel, workloads
from benchmarks.perf.tracer import (
    CALLBACKS, JOB_SLOTS, REGISTERED, SPANNED, LayerTracer, _import_class,
)

TINY = {
    "two_tier": dict(
        qps=5000.0, duration=0.02, nginx_processes=8, memcached_threads=4,
    ),
    "social_network": dict(qps=2000.0, duration=0.02, propagation=100e-6),
    "fanout500": dict(
        qps=30.0, max_requests=4, cluster_size=20, slow_fraction=0.1,
    ),
    "retry_storm": dict(
        qps=1200.0, duration=0.2, mean_service=1e-3, timeout=30e-3,
        max_attempts=4,
    ),
    "social_shards2": dict(
        qps=2000.0, duration=0.02, warmup=0.005, propagation=100e-6,
        shards=2,
    ),
}

BUSY_S = 2e-3


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _job(name, params=None, seed=1):
    return {
        "workload": name, "params": params or TINY[name], "seed": seed,
        "seconds": 0, "spawned_at": time.monotonic(),
    }


def _patched_attributes():
    names = [(m, c, method) for m, c, methods in SPANNED for method in methods]
    names += [(m, c, method) for m, c, method, _, _ in CALLBACKS]
    names += [("repro.service.job", "Job", slot) for slot in JOB_SLOTS]
    names += [(m, c, "__init__") for m, c in REGISTERED]
    return {
        (c, method): _import_class(m, c).__dict__[method]
        for m, c, method in names
    }


def test_tracer_books_callback_work_to_its_layer_and_reconciles():
    from repro.distributions import Deterministic
    from repro.engine import Simulator
    from repro.hardware import Machine
    from repro.service import (
        ExecutionPath, Job, Microservice, PathSelector, Request, SimpleModel,
        SingleQueue, Stage,
    )

    def busy(job):
        _spin(BUSY_S)

    # Known busy work owned by the dispatcher's layer, run by the
    # microservice as a Job.on_complete callback.
    busy.__module__ = "repro.topology.synthetic"
    jobs = 20
    with LayerTracer() as tracer:
        sim = Simulator(seed=0)
        service = Microservice(
            "svc", sim, [Stage("s", 0, SingleQueue(), base=Deterministic(1e-3))],
            PathSelector([ExecutionPath(0, "only", [0])]),
            Machine("m", 1).allocate("svc", 1), model=SimpleModel(),
            machine_name="m",
        )
        for i in range(jobs):
            job = Job(Request(created_at=0.0))
            job.on_complete = busy
            sim.schedule(i * 1e-3, service.accept, job)
        tracer.start()
        t0 = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - t0
        tracer.stop()
    assert service.jobs_completed == jobs
    assert sum(tracer.self_s.values()) == pytest.approx(wall, rel=0.01)
    assert tracer.self_s["topology"] >= jobs * BUSY_S
    assert tracer.self_s["service"] < tracer.self_s["topology"] / 2
    assert tracer.calls["topology"] == jobs
    assert tracer.events == tracer.counters()["events"] == 2 * jobs


def test_every_patched_attribute_is_restored():
    before = _patched_attributes()
    with LayerTracer():
        during = _patched_attributes()
    after = _patched_attributes()
    assert all(during[key] is not before[key] for key in before)
    assert all(after[key] is before[key] for key in before)


def test_restored_after_a_traced_rep_raises():
    before = _patched_attributes()
    with pytest.raises(RuntimeError):
        with LayerTracer():
            raise RuntimeError("boom")
    assert _patched_attributes() == before


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_digests_are_equal(name):
    timed = child.timed(_job(name))
    traced = child.traced(_job(name))
    assert [run["error"] for run in timed["runs"]] == [None] * child.MIN_REPS
    assert traced["run"]["error"] is None
    assert traced["run"]["digest"] == timed["runs"][0]["digest"]
    assert sum(traced["self_s"].values()) == pytest.approx(
        traced["wall"], rel=0.01
    )


@pytest.mark.parametrize(
    "name", ["two_tier", "social_network", "fanout500", "retry_storm"]
)
def test_input_requests_are_what_the_client_sends(name):
    rep = workloads.prepare(name, TINY[name], 1)
    rep.run()
    assert workloads.input_requests(TINY[name], 1) == rep.client.requests_sent


def test_host_us_per_req_sums_each_inputs_median_calibrated_rep():
    ref = kernel.REFERENCE_KERNEL_S
    slow = ref * 2 ** (1 / kernel.SENSITIVITY)  # a host half as fast
    runs = [
        {"input": 0, "wall": 1.0, "kernels": [ref, ref]},
        {"input": 1, "wall": 2.0, "kernels": [ref, ref]},
        {"input": 0, "wall": 2.0, "kernels": [slow, slow]},
        {"input": 1, "wall": 9.0, "kernels": [ref, ref]},
        {"input": 0, "wall": 1.0, "kernels": [ref, ref]},
        {"input": 1, "wall": 2.0, "kernels": [ref, ref]},
        {"input": 0, "digest": None, "error": "raised"},
    ]
    timed = {"runs": runs, "requests": [100, 200], "peak_rss_mb": 1.0}
    setups = [{"setup_s": 0.5, "kernel": ref}, {"setup_s": 1.0, "kernel": slow},
              {"setup_s": 0.6, "kernel": ref}]
    assert harness.rep_walls(timed) == pytest.approx({0: 1.0, 1: 2.0})
    metrics = harness.end_to_end_metrics(timed, setups)
    assert metrics["host_us_per_req"] == pytest.approx(3.0 / 300 * 1e6)
    assert metrics["setup_s"] == pytest.approx(0.5)


def _main(capsys, golden, params):
    code = harness.main(
        ["--workload", "retry_storm", "--seed", "1", "--trace", "0"],
        workloads={"retry_storm": params}, golden=golden,
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def test_perturbed_world_fails_the_golden_check(capsys):
    params = TINY["retry_storm"]
    runs = child.timed(_job("retry_storm"))["runs"]
    golden = {"retry_storm": {"1": [run["digest"] for run in runs]}}
    assert [run["input"] for run in runs] == list(range(workloads.INPUTS))

    code, result = _main(capsys, {}, params)  # no golden: unchecked
    assert (code, result["correct"], result["failed"]) == (0, True, 0)
    assert set(result["metrics"]) == {name for name, _, _ in harness.END_TO_END}

    assert _main(capsys, golden, params)[0] == 0

    perturbed = dict(params, mean_service=1.1e-3)
    code, result = _main(capsys, golden, perturbed)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_refuses_to_run_without_the_simulator_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(harness, "ROOT", tmp_path)
    assert harness.main(["--workload", "two_tier", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
