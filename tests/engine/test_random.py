"""Tests for seeded random streams: reproducibility and independence."""

import numpy as np
import pytest

from repro.apps import three_tier
from repro.distributions import Deterministic, Mixture
from repro.engine import RandomStreams
from repro.engine.random import cumulative_weights, weighted_index
from repro.service import Request
from repro.service.paths import ExecutionPath, PathSelector
from repro.workload import RequestMix


class TestReproducibility:
    def test_same_seed_same_stream(self):
        a = RandomStreams(7).stream("arrivals")
        b = RandomStreams(7).stream("arrivals")
        assert a.random(5).tolist() == b.random(5).tolist()

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("arrivals")
        b = RandomStreams(2).stream("arrivals")
        assert a.random(5).tolist() != b.random(5).tolist()

    def test_named_streams_are_independent_of_creation_order(self):
        fwd = RandomStreams(3)
        x1 = fwd.stream("x").random(3).tolist()
        y1 = fwd.stream("y").random(3).tolist()

        rev = RandomStreams(3)
        y2 = rev.stream("y").random(3).tolist()
        x2 = rev.stream("x").random(3).tolist()

        assert x1 == x2
        assert y1 == y2

    def test_stream_is_cached(self):
        streams = RandomStreams(0)
        assert streams.stream("a") is streams.stream("a")
        assert "a" in streams

    def test_different_names_differ(self):
        streams = RandomStreams(0)
        a = streams.stream("a").random(5).tolist()
        b = streams.stream("b").random(5).tolist()
        assert a != b


class TestFork:
    def test_fork_is_reproducible(self):
        a = RandomStreams(5).fork("rep-1").stream("svc")
        b = RandomStreams(5).fork("rep-1").stream("svc")
        assert a.random(4).tolist() == b.random(4).tolist()

    def test_fork_decorrelates(self):
        base = RandomStreams(5)
        a = base.fork("rep-1").stream("svc").random(4).tolist()
        b = base.fork("rep-2").stream("svc").random(4).tolist()
        assert a != b

    def test_fork_differs_from_parent(self):
        base = RandomStreams(5)
        parent = base.stream("svc").random(4).tolist()
        child = base.fork("rep-1").stream("svc").random(4).tolist()
        assert parent != child


WEIGHTS = {
    "single": [1.0],
    "uneven": [0.3, 0.5, 0.2],
    "trailing_zero": [0.25, 0.75, 0.0],
}


class TestWeightedIndex:
    """A weighted draw must be ``rng.choice(n, p=...)``'s draw: the same
    index and the same stream state afterwards, so switching to it moves
    no simulated output."""

    @pytest.mark.parametrize("weights", list(WEIGHTS.values()), ids=list(WEIGHTS))
    def test_matches_rng_choice(self, weights):
        p = np.array(weights)
        ours, numpy_ = np.random.default_rng(5), np.random.default_rng(5)
        cdf = cumulative_weights(p)
        drawn = [weighted_index(ours, cdf) for _ in range(5000)]
        expected = [int(numpy_.choice(len(p), p=p)) for _ in range(5000)]
        assert drawn == expected
        assert ours.bit_generator.state == numpy_.bit_generator.state
        if weights[-1] == 0.0:
            assert len(p) - 1 not in drawn

    @pytest.mark.parametrize("weights", list(WEIGHTS.values()), ids=list(WEIGHTS))
    def test_request_mix_and_path_selector_match_rng_choice(self, weights):
        p = np.array(weights) / sum(weights)
        mix = RequestMix.from_weights(
            {f"t{i}": w for i, w in enumerate(weights)}
        )
        selector = PathSelector(
            [ExecutionPath(i, f"p{i}", [0]) for i in range(len(weights))],
            {i: w for i, w in enumerate(weights)},
        )
        ours, numpy_ = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(1000):
            name, _size = mix.sample(ours)
            assert name == f"t{int(numpy_.choice(len(p), p=p))}"
            path = selector.select(ours)
            assert path.path_id == int(numpy_.choice(len(p), p=p))
        assert ours.bit_generator.state == numpy_.bit_generator.state

    def test_three_tier_tree_pick_matches_rng_choice(self):
        # three_tier registers a hit and a miss tree by weight.
        dispatcher = three_tier(seed=4).dispatcher
        trees = [tree for tree, _ in dispatcher._trees]
        p = np.array([w for _, w in dispatcher._trees])
        assert len(trees) == 2
        numpy_ = np.random.default_rng()
        numpy_.bit_generator.state = dispatcher._rng.bit_generator.state
        request = Request(0.0)
        for _ in range(5000):
            picked = dispatcher._pick_tree(request)
            assert picked is trees[int(numpy_.choice(len(p), p=p))]
        assert dispatcher._rng.bit_generator.state == numpy_.bit_generator.state

    def test_mixture_matches_rng_choice(self):
        weights = [0.25, 0.6, 0.0, 0.15]
        mixture = Mixture([Deterministic(float(i)) for i in range(4)], weights)
        ours, numpy_ = np.random.default_rng(13), np.random.default_rng(13)
        drawn = [mixture.sample(ours) for _ in range(5000)]
        expected = [
            float(numpy_.choice(4, p=np.array(weights))) for _ in range(5000)
        ]
        assert drawn == expected
        assert ours.bit_generator.state == numpy_.bit_generator.state
