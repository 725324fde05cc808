"""Tests for the simple and multi-threaded execution models."""

import pytest

from repro.errors import ConfigError
from repro.service import MultiThreadedModel, SimpleModel


class FakeCore:
    """Core stand-in carrying the worker that last ran on it."""

    def __init__(self):
        self.last_worker_id = None


class TestSimpleModel:
    def test_never_stalls(self):
        model = SimpleModel()
        workers = [model.acquire_worker() for _ in range(100)]
        assert all(w is not None for w in workers)

    def test_recycles_workers(self):
        model = SimpleModel()
        w = model.acquire_worker()
        model.release_worker(w)
        assert model.acquire_worker() is w

    def test_no_overhead(self):
        model = SimpleModel()
        w = model.acquire_worker()
        assert model.dispatch_overhead(w, FakeCore()) == 0.0

    def test_unbounded_concurrency(self):
        assert SimpleModel().concurrency is None


class TestMultiThreadedModel:
    def test_stalls_when_exhausted(self):
        model = MultiThreadedModel(2, context_switch=0.0)
        a = model.acquire_worker()
        b = model.acquire_worker()
        assert a is not None and b is not None
        assert model.acquire_worker() is None

    def test_release_restores_capacity(self):
        model = MultiThreadedModel(1, context_switch=0.0)
        w = model.acquire_worker()
        assert model.acquire_worker() is None
        model.release_worker(w)
        assert model.acquire_worker() is not None

    def test_concurrency_and_idle_counts(self):
        model = MultiThreadedModel(3, context_switch=0.0)
        assert model.concurrency == 3
        assert model.idle_threads == 3
        model.acquire_worker()
        assert model.idle_threads == 2

    def test_context_switch_charged_on_worker_change(self):
        model = MultiThreadedModel(2, context_switch=5e-6)
        core = FakeCore()
        a = model.acquire_worker()
        b = model.acquire_worker()
        assert model.dispatch_overhead(a, core) == 0.0  # first use is free
        assert model.dispatch_overhead(b, core) == 5e-6
        assert model.dispatch_overhead(b, core) == 0.0  # same thread again

    def test_dynamic_spawning_grows_to_max(self):
        model = MultiThreadedModel(1, context_switch=0.0, dynamic=True, max_threads=3)
        ws = [model.acquire_worker() for _ in range(3)]
        assert all(w is not None for w in ws)
        assert model.acquire_worker() is None
        assert model.spawned_dynamically == 2

    def test_dynamic_needs_max_threads(self):
        with pytest.raises(ConfigError):
            MultiThreadedModel(2, dynamic=True)
        with pytest.raises(ConfigError):
            MultiThreadedModel(2, dynamic=True, max_threads=1)

    def test_static_max_threads_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            MultiThreadedModel(2, max_threads=4)

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            MultiThreadedModel(0)
        with pytest.raises(ConfigError):
            MultiThreadedModel(1, context_switch=-1e-6)

    def test_double_release_rejected(self):
        from repro.errors import ResourceError

        model = MultiThreadedModel(1)
        w = model.acquire_worker()
        model.release_worker(w)
        with pytest.raises(ResourceError):
            model.release_worker(w)
