"""The one stopping rule shared by BigHouse and uqSim replications."""

import numpy as np
import pytest

from repro.analysis.convergence import StoppingRule, replicate
from repro.errors import ReproError, SimulationError

#: Per-replication statistics whose relative standard error first drops
#: under 0.065 at the seventh value.
VALUES = [1.0, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.05, 0.95, 1.0, 1.0, 1.0]


def run_over(values, calls):
    """A ``run`` callable handing out *values* by index, logging each
    requested range in *calls*."""
    def run(indices):
        calls.append((indices.start, indices.stop))
        return [values[k] for k in indices]
    return run


def first_converged(values, rule):
    for n in range(rule.min_count, rule.max_count + 1):
        mean = np.mean(values[:n])
        stderr = np.std(values[:n], ddof=1) / np.sqrt(n)
        if mean > 0 and stderr / mean < rule.tolerance:
            return n
    return None


class TestRoundSize:
    RULE = StoppingRule(min_count=3, max_count=12, tolerance=0.065)

    def test_reference_prefix_is_seven(self):
        assert first_converged(VALUES, self.RULE) == 7

    @pytest.mark.parametrize("round_size", [1, 2, 5])
    def test_prefix_does_not_depend_on_round_size(self, round_size):
        calls = []
        prefix, mean, stderr, converged = replicate(
            self.RULE, run_over(VALUES, calls), float, round_size=round_size)
        assert converged
        assert prefix == VALUES[:7]
        assert mean == float(np.mean(VALUES[:7]))
        assert stderr == float(np.std(VALUES[:7], ddof=1) / np.sqrt(7))
        # Each index is asked for once, in order: min_count first, then
        # round_size at a time.
        assert calls[0] == (0, 3)
        assert all(b - a == round_size for a, b in calls[1:])
        assert [a for a, _ in calls[1:]] == [b for _, b in calls[:-1]]

    def test_rounds_stop_at_max_count(self):
        calls = []
        rule = StoppingRule(min_count=2, max_count=6, tolerance=0.01)
        prefix, _, _, converged = replicate(
            rule, run_over(VALUES, calls), float, round_size=5)
        assert calls == [(0, 2), (2, 6)]
        assert not converged
        assert prefix == VALUES[:6]


class TestEdges:
    """The edges ``tests/bighouse/test_convergence_paths.py`` checks
    through BigHouse, on the rule itself."""

    def test_unconverged_returns_every_replication(self):
        drifting = [float(2 ** k) for k in range(10)]
        rule = StoppingRule(min_count=2, max_count=3, tolerance=0.0001)
        prefix, mean, _, converged = replicate(
            rule, run_over(drifting, []), float)
        assert not converged
        assert prefix == drifting[:3]
        assert mean == float(np.mean(drifting[:3]))

    def test_zero_spread_converges_at_min_count(self):
        rule = StoppingRule(min_count=2, max_count=10, tolerance=0.01)
        prefix, _, stderr, converged = replicate(
            rule, run_over([5.0] * 10, []), float)
        assert converged
        assert prefix == [5.0, 5.0]
        assert stderr == 0.0

    def test_non_positive_mean_never_converges(self):
        rule = StoppingRule(min_count=2, max_count=4, tolerance=0.5)
        prefix, _, _, converged = replicate(
            rule, run_over([0.0] * 4, []), float)
        assert not converged
        assert len(prefix) == 4

    def test_min_equal_max_runs_exactly_that_many(self):
        rule = StoppingRule(min_count=3, max_count=3, tolerance=0.5)
        calls = []
        prefix, _, _, _ = replicate(rule, run_over(VALUES, calls), float)
        assert calls == [(0, 3)]
        assert len(prefix) == 3

    def test_statistic_reads_each_replication(self):
        rule = StoppingRule(min_count=2, max_count=4, tolerance=0.5)
        _, mean, _, converged = replicate(
            rule, run_over([{"p99": 2.0}] * 4, []), lambda r: r["p99"])
        assert converged and mean == 2.0

    @pytest.mark.parametrize("kwargs", [
        dict(min_count=1, max_count=4, tolerance=0.1),
        dict(min_count=4, max_count=2, tolerance=0.1),
        dict(min_count=2, max_count=4, tolerance=0.0),
        dict(min_count=2, max_count=4, tolerance=1.0),
        dict(min_count=2, max_count=4, tolerance=2.0),
    ])
    def test_invalid_rule_is_refused(self, kwargs):
        with pytest.raises(SimulationError):
            StoppingRule(**kwargs)
        assert issubclass(SimulationError, ReproError)
