"""Tests for the empirical histogram distribution and its file format."""

import json

import numpy as np
import pytest

from repro.distributions import Histogram
from repro.errors import DistributionError


@pytest.fixture
def rng():
    return np.random.default_rng(1)


class TestValidation:
    def test_edges_must_outnumber_counts_by_one(self):
        with pytest.raises(DistributionError):
            Histogram([0, 1], [1, 2])

    def test_edges_must_increase(self):
        with pytest.raises(DistributionError):
            Histogram([0, 1, 1], [1, 1])

    def test_negative_counts_rejected(self):
        with pytest.raises(DistributionError):
            Histogram([0, 1, 2], [1, -1])

    def test_all_zero_counts_rejected(self):
        with pytest.raises(DistributionError):
            Histogram([0, 1, 2], [0, 0])

    def test_negative_times_rejected(self):
        with pytest.raises(DistributionError):
            Histogram([-1, 0, 1], [1, 1])

    def test_empty_rejected(self):
        with pytest.raises(DistributionError):
            Histogram([0], [])


class TestSampling:
    def test_samples_within_support(self, rng):
        h = Histogram([0.0, 1.0, 2.0], [1, 1])
        samples = h.sample_many(rng, 5000)
        assert samples.min() >= 0.0 and samples.max() <= 2.0

    def test_mass_respected(self, rng):
        h = Histogram([0.0, 1.0, 2.0], [9, 1])
        samples = h.sample_many(rng, 50_000)
        low_fraction = np.mean(samples < 1.0)
        assert low_fraction == pytest.approx(0.9, abs=0.01)

    def test_mean_midpoint_formula(self):
        h = Histogram([0.0, 2.0, 4.0], [1, 1])
        assert h.mean() == pytest.approx(2.0)

    def test_scalar_and_vector_agree_statistically(self, rng):
        h = Histogram([0.0, 1.0], [1])
        scalar = np.array([h.sample(rng) for _ in range(5000)])
        assert 0.45 < scalar.mean() < 0.55


class TestPercentile:
    def test_median_of_uniform_bin(self):
        h = Histogram([0.0, 1.0], [1])
        assert h.percentile(0.5) == pytest.approx(0.5)

    def test_extremes(self):
        h = Histogram([0.0, 1.0, 3.0], [1, 1])
        assert h.percentile(0.0) == pytest.approx(0.0)
        assert h.percentile(1.0) == pytest.approx(3.0)

    def test_out_of_range_rejected(self):
        h = Histogram([0.0, 1.0], [1])
        with pytest.raises(DistributionError):
            h.percentile(1.5)


class TestFromSamples:
    def test_roundtrip_statistics(self, rng):
        raw = rng.exponential(0.01, size=20_000)
        h = Histogram.from_samples(raw, bins=128)
        resampled = h.sample_many(rng, 20_000)
        assert np.mean(resampled) == pytest.approx(np.mean(raw), rel=0.05)

    def test_degenerate_single_value(self, rng):
        h = Histogram.from_samples([0.005, 0.005, 0.005])
        assert h.sample(rng) == pytest.approx(0.005, rel=1e-3)

    def test_range_too_narrow_for_the_bins(self, rng):
        # One ulp apart: numpy cannot split the range into 16 bins.
        h = Histogram.from_samples([1000.0, 999.9999999999999], bins=16)
        assert h.sample(rng) == pytest.approx(1000.0, rel=1e-5)

    def test_no_samples_rejected(self):
        with pytest.raises(DistributionError):
            Histogram.from_samples([])


class TestFileFormat:
    def test_load_with_unit_conversion(self, tmp_path):
        path = tmp_path / "svc.hist.json"
        path.write_text(
            json.dumps({"unit": "us", "edges": [0, 10, 20], "counts": [1, 1]})
        )
        h = Histogram.load(path)
        assert h.edges.tolist() == pytest.approx([0, 10e-6, 20e-6])

    def test_dump_load_roundtrip(self, tmp_path, rng):
        h = Histogram([0.0, 0.001, 0.002], [3, 7])
        path = tmp_path / "out.json"
        h.dump(path, unit="ms")
        again = Histogram.load(path)
        assert again.edges.tolist() == pytest.approx(h.edges.tolist())
        assert again.counts.tolist() == pytest.approx(h.counts.tolist())

    def test_unknown_unit_rejected(self):
        with pytest.raises(DistributionError):
            Histogram.from_dict({"unit": "parsec", "edges": [0, 1], "counts": [1]})

    def test_malformed_payload_rejected(self):
        with pytest.raises(DistributionError):
            Histogram.from_dict({"unit": "s"})
