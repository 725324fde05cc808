"""Block-buffered sampling must be a pure transparency layer: the
value stream and the generator end state are bitwise-identical to
repeated scalar draws. These tests pin that contract for every
distribution family in the library — it is what lets the engine buffer
its hottest stochastic call sites without changing any seeded result.
"""

import copy

import numpy as np
import pytest

from repro.distributions import (
    BufferedSampler,
    Deterministic,
    Erlang,
    Exponential,
    FrequencyTable,
    Histogram,
    LogNormal,
    Mixture,
    Pareto,
    Scaled,
    Shifted,
    Uniform,
    Weibull,
)
from repro.engine import RandomStreams
from repro.errors import DistributionError

DISTRIBUTIONS = [
    Deterministic(2.5e-3),
    Exponential(1e-3),
    Uniform(1e-4, 5e-4),
    LogNormal(-7.0, 0.4),
    Pareto(1e-3, 2.5),
    Erlang(3, 2e-4),
    Weibull(1.7, 1e-3),
    Scaled(Exponential(1e-3), 1.3),
    Shifted(Exponential(1e-3), 5e-5),
    Mixture([Exponential(1e-3), Uniform(1e-4, 2e-4)], [0.7, 0.3]),
    Histogram([1e-4, 3e-4, 9e-4, 2e-3], [5, 3, 2]),
]


def _ids(dist):
    return type(dist).__name__


#: Draws served when each refill at the default block runs dry: refills
#: grow 16, 32, ..., 512, then hold at 1024.
REFILL_ENDS = [16, 48, 112, 240, 496, 1008, 2032, 3056]

#: Draw counts on both sides of every growth boundary.
STRADDLES = [1] + [end + d for end in REFILL_ENDS for d in (-1, 0, 1)]

#: ``("sample", n)`` is n sample() calls, ``("take", n)`` one take(n).
#: The steps cross the first boundaries one draw at a time, take 1,100
#: draws at once (more than the default block), pass 2,048 draws and
#: end on an emptied refill, so nothing is left buffered.
MIXED = [
    ("sample", 1), ("take", 14),    # 15
    ("take", 2),                    # 17: across the first refill
    ("take", 30), ("sample", 2),    # 49: across the second
    ("take", 1100),                 # 1,149: one numpy call of 1,037
    ("sample", 256), ("take", 512), ("sample", 1024),   # 2,941
]
MIXED_DRAWS = sum(n for _, n in MIXED)


def _serve(steps, sample, take):
    served = []
    for method, n in steps:
        if method == "take":
            served += take(n)
        else:
            served += [sample() for _ in range(n)]
    return served


def _state_after(dist, rng, n):
    """*rng*'s state after *n* more scalar draws, leaving *rng* as is."""
    twin = copy.deepcopy(rng)
    for _ in range(n):
        dist.sample(twin)
    return twin.bit_generator.state


@pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=_ids)
class TestBitwiseEquivalence:
    def test_sample_matches_scalar_stream(self, dist):
        scalar_rng = np.random.default_rng(42)
        buffered_rng = np.random.default_rng(42)
        sampler = BufferedSampler(dist, buffered_rng, block=16)
        scalar = [dist.sample(scalar_rng) for _ in range(50)]
        buffered = [sampler.sample() for _ in range(50)]
        assert buffered == scalar

    def test_generator_end_state_matches(self, dist):
        scalar_rng = np.random.default_rng(7)
        buffered_rng = np.random.default_rng(7)
        sampler = BufferedSampler(dist, buffered_rng, block=8)
        for _ in range(16):  # exactly two full blocks
            dist.sample(scalar_rng)
            sampler.sample()
        assert (scalar_rng.bit_generator.state
                == buffered_rng.bit_generator.state)

    def test_take_matches_scalar_stream(self, dist):
        scalar_rng = np.random.default_rng(3)
        buffered_rng = np.random.default_rng(3)
        sampler = BufferedSampler(dist, buffered_rng, block=8)
        scalar = [dist.sample(scalar_rng) for _ in range(30)]
        # Mixed request sizes: within a block, across refills, and one
        # request (20) larger than the block itself.
        got = sampler.take(3) + sampler.take(7) + sampler.take(20)
        assert got == scalar

    def test_growing_refills_match_scalar_stream(self, dist):
        # At the default block, on both sides of every refill: the
        # values served so far and the generator state, which is ahead
        # of the scalar stream by exactly the draws still buffered.
        scalar_rng = np.random.default_rng(21)
        buffered_rng = np.random.default_rng(21)
        sampler = BufferedSampler(dist, buffered_rng)
        scalar, served = [], []
        for count in STRADDLES:
            while len(served) < count:
                scalar.append(dist.sample(scalar_rng))
                served.append(sampler.sample())
            assert served == scalar, count
            assert buffered_rng.bit_generator.state == _state_after(
                dist, scalar_rng, sampler.buffered
            ), count

    def test_mixed_sample_and_take_match_scalar_stream(self, dist):
        scalar_rng = np.random.default_rng(22)
        buffered_rng = np.random.default_rng(22)
        sampler = BufferedSampler(dist, buffered_rng)
        served = _serve(MIXED, sampler.sample, sampler.take)
        assert served == [dist.sample(scalar_rng) for _ in range(MIXED_DRAWS)]
        assert sampler.buffered == 0
        assert (scalar_rng.bit_generator.state
                == buffered_rng.bit_generator.state)

    def test_frequency_sampler_matches_scalar_stream(self, dist):
        # Served at half the profiled frequency, so every value is
        # scaled at serve time, through the same mixed steps.
        table = FrequencyTable.single(dist, 2.0e9)
        scalar_rng = np.random.default_rng(23)
        buffered_rng = np.random.default_rng(23)
        sampler = table.make_sampler(buffered_rng)
        served = _serve(
            MIXED, lambda: sampler.sample(1.0e9),
            lambda n: sampler.take(n, 1.0e9),
        )
        assert served == [
            table.sample(scalar_rng, 1.0e9) for _ in range(MIXED_DRAWS)
        ]
        assert (scalar_rng.bit_generator.state
                == buffered_rng.bit_generator.state)


class TestBufferMechanics:
    def test_block_size_is_invisible(self):
        streams = [
            BufferedSampler(Exponential(1.0), np.random.default_rng(5), block=b)
            for b in (1, 2, 64, 1024)
        ]
        draws = [[s.sample() for _ in range(100)] for s in streams]
        assert draws[0] == draws[1] == draws[2] == draws[3]

    def test_take_zero(self):
        sampler = BufferedSampler(Exponential(1.0), np.random.default_rng(0))
        assert sampler.take(0) == []

    def test_take_negative_raises(self):
        sampler = BufferedSampler(Exponential(1.0), np.random.default_rng(0))
        with pytest.raises(DistributionError):
            sampler.take(-1)

    def test_bad_block_raises(self):
        with pytest.raises(DistributionError):
            BufferedSampler(Exponential(1.0), np.random.default_rng(0), block=0)

    def test_buffered_telemetry(self):
        sampler = BufferedSampler(
            Exponential(1.0), np.random.default_rng(0), block=10
        )
        assert sampler.buffered == 0
        sampler.sample()
        assert sampler.buffered == 9


class TestFrequencySampler:
    TABLE = FrequencyTable.single(Exponential(1e-3), 2.0e9)

    def test_matches_scalar_at_profiled_frequency(self):
        scalar_rng = np.random.default_rng(11)
        buffered_rng = np.random.default_rng(11)
        sampler = self.TABLE.make_sampler(buffered_rng, block=16)
        scalar = [self.TABLE.sample(scalar_rng, 2.0e9) for _ in range(40)]
        buffered = [sampler.sample(2.0e9) for _ in range(40)]
        assert buffered == scalar

    def test_matches_scalar_at_scaled_frequency(self):
        # 1 GHz on a 2 GHz profile: every draw is scaled 2x at serve time.
        scalar_rng = np.random.default_rng(12)
        buffered_rng = np.random.default_rng(12)
        sampler = self.TABLE.make_sampler(buffered_rng, block=16)
        scalar = [self.TABLE.sample(scalar_rng, 1.0e9) for _ in range(40)]
        buffered = [sampler.sample(1.0e9) for _ in range(40)]
        assert buffered == scalar

    def test_dvfs_transition_is_exact(self):
        # Interleave frequencies: a scalar caller draws from the same
        # stream whichever frequency is active, and so must the sampler —
        # the frequency change takes effect on the very next draw.
        scalar_rng = np.random.default_rng(13)
        buffered_rng = np.random.default_rng(13)
        sampler = self.TABLE.make_sampler(buffered_rng, block=8)
        freqs = [2.0e9, 2.0e9, 1.0e9, 2.0e9, 1.5e9, 1.0e9] * 5
        scalar = [self.TABLE.sample(scalar_rng, f) for f in freqs]
        buffered = [sampler.sample(f) for f in freqs]
        assert buffered == scalar

    def test_take_with_factor(self):
        scalar_rng = np.random.default_rng(14)
        buffered_rng = np.random.default_rng(14)
        sampler = self.TABLE.make_sampler(buffered_rng, block=8)
        scalar = [self.TABLE.sample(scalar_rng, 1.0e9) for _ in range(20)]
        assert sampler.take(20, 1.0e9) == scalar

    def test_nominal_default(self):
        table = FrequencyTable(
            {1.0e9: Exponential(2e-3), 2.0e9: Exponential(1e-3)}
        )
        scalar_rng = np.random.default_rng(15)
        buffered_rng = np.random.default_rng(15)
        sampler = table.make_sampler(buffered_rng)
        scalar = [table.sample(scalar_rng) for _ in range(10)]
        assert [sampler.sample() for _ in range(10)] == scalar

    def test_invalid_frequency_raises(self):
        sampler = self.TABLE.make_sampler(np.random.default_rng(0))
        with pytest.raises(DistributionError):
            sampler.sample(-1.0)

    TWO_POINTS = FrequencyTable(
        {1.0e9: Exponential(2e-3), 2.0e9: Exponential(1e-3)}
    )

    def served(self, block, freqs=(2.0e9, 1.0e9, 2.0e9, 1.0e9)):
        streams = RandomStreams(17)
        sampler = self.TWO_POINTS.make_sampler(
            streams.stream("cost"), block,
            point_rng=lambda point: streams.stream(f"cost@{point!r}"),
        )
        return [sampler.sample(f) for f in freqs]

    def test_profiled_points_switching_does_not_depend_on_block(self):
        # Each profiled point buffers its own generator, so a switch
        # between points cannot shift the other point's sequence.
        assert self.served(4) == self.served(8)
        freqs = [2.0e9, 1.0e9, 1.5e9, 1.0e9, 2.0e9] * 7
        assert self.served(4, freqs) == self.served(8, freqs)

    def test_each_profiled_point_matches_scalar_draws_on_its_stream(self):
        streams = RandomStreams(17)
        nominal = streams.stream("cost")
        low = streams.stream(f"cost@{1.0e9!r}")
        scalar = [
            self.TWO_POINTS.sample(nominal if f == 2.0e9 else low, f)
            for f in (2.0e9, 1.0e9, 2.0e9, 1.0e9)
        ]
        assert self.served(4) == scalar

    def test_second_profiled_point_needs_its_own_stream(self):
        sampler = self.TWO_POINTS.make_sampler(np.random.default_rng(0))
        assert sampler.sample(2.0e9) > 0  # the nominal point is fine
        with pytest.raises(DistributionError, match="point_rng"):
            sampler.sample(1.0e9)
