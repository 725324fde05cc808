"""Regression tests for the registry's shard gating.

The original gating nested contradictory ``shards`` checks (an inner
``shards == 1`` arm inside the ``shards != 1`` branch); the untangled
rule is simple and tested here exhaustively: ``shards=1`` — the
default — is always accepted, parallelism (``shards >= 2``) needs a
shard-capable runner, and the supervisor knobs need parallelism first
and capability second.
"""

import pytest

from repro.errors import ReproError
from repro.experiments import registry
from repro.experiments.registry import ExperimentSpec


def _plain_runner(**kwargs):
    return kwargs


def _sharded_runner(shards=1, shard_timeout=None, shard_restarts=None,
                    **kwargs):
    return dict(kwargs, shards=shards, shard_timeout=shard_timeout,
                shard_restarts=shard_restarts)


def _sharded_no_tuning_runner(shards=1, **kwargs):
    return dict(kwargs, shards=shards)


PLAIN = ExperimentSpec("plain", "-", "no shard support", _plain_runner)
SHARDED = ExperimentSpec("sharded", "-", "full shard support",
                         _sharded_runner)
NO_TUNING = ExperimentSpec("no_tuning", "-", "shards but no knobs",
                           _sharded_no_tuning_runner)


class TestShardGating:
    def test_explicit_shards_1_accepted_without_support(self):
        # shards=1 is the default single-core path: passing it
        # explicitly to a non-shard-capable experiment must work.
        assert PLAIN.run(shards=1) == {}

    def test_parallel_shards_rejected_without_support(self):
        with pytest.raises(ReproError, match="sharded parallel core"):
            PLAIN.run(shards=2)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_nonpositive_shards_rejected(self, bad):
        with pytest.raises(ReproError, match="must be >= 1"):
            SHARDED.run(shards=bad)

    def test_shards_forwarded_when_supported(self):
        assert SHARDED.run(shards=4)["shards"] == 4

    def test_shards_1_not_forced_on_capable_runner(self):
        # The runner's own default covers shards=1; the registry only
        # injects the knob when parallelism was requested.
        assert SHARDED.run(shards=1)["shards"] == 1


class TestSupervisorKnobGating:
    def test_tuning_needs_parallelism_first(self):
        with pytest.raises(ReproError, match="need --shards"):
            SHARDED.run(shards=1, shard_timeout=5.0)

    def test_tuning_needs_runner_capability_second(self):
        with pytest.raises(ReproError, match="supervisor knobs"):
            NO_TUNING.run(shards=2, shard_timeout=5.0)

    def test_tuning_forwarded_when_supported(self):
        result = SHARDED.run(shards=2, shard_timeout=5.0, shard_restarts=7)
        assert result["shard_timeout"] == 5.0
        assert result["shard_restarts"] == 7


def _scrapable_runner(scrape_interval=None, **kwargs):
    return dict(kwargs, scrape_interval=scrape_interval)


SCRAPABLE = ExperimentSpec("scrapable", "-", "scrape support",
                           _scrapable_runner)


class TestScrapeGating:
    def test_scrape_rejected_without_support(self):
        assert not PLAIN.supports("scrape_interval")
        with pytest.raises(ReproError, match="scrape_interval"):
            PLAIN.run(scrape_interval=0.01)

    def test_scrape_forwarded_when_supported(self):
        assert SCRAPABLE.supports("scrape_interval")
        assert SCRAPABLE.run(scrape_interval=0.01) == {
            "scrape_interval": 0.01
        }

    def test_scrape_off_never_forwarded(self):
        # Off is the default everywhere; the registry must not inject
        # the kwarg into runners that do not declare it.
        assert PLAIN.run() == {}


class TestRegisteredCapabilities:
    @pytest.mark.parametrize("exp_id", ["fig5", "fig12b", "fig14"])
    def test_ported_topologies_support_shards(self, exp_id):
        assert registry.get(exp_id).supports("shards")

    @pytest.mark.parametrize("exp_id", ["fig5", "fig12b"])
    def test_adapter_experiments_support_lifted_knobs(self, exp_id):
        spec = registry.get(exp_id)
        assert spec.supports("shard_timeout")
        assert spec.supports("slo")
        assert spec.supports("trace_dir")

    def test_serial_experiments_do_not(self):
        assert not registry.get("fig16").supports("shards")

    @pytest.mark.parametrize("exp_id", ["fig5", "fig12b"])
    def test_adapter_experiments_support_scrape(self, exp_id):
        assert registry.get(exp_id).supports("scrape_interval")

    def test_fanout_port_refuses_scrape(self):
        # The hand-written fan-out runner declares no scrape support:
        # asking fig14 for a timeline is a loud error, never a
        # silently-unscraped run.
        spec = registry.get("fig14")
        assert not spec.supports("scrape_interval")
        with pytest.raises(ReproError, match="scrape_interval"):
            spec.run(scrape_interval=0.01)
