"""Unit tests for the shard planner."""

import pytest

from repro.distributions import Deterministic, Exponential, Shifted
from repro.errors import ShardingError
from repro.hardware import NetworkFabric
from repro.shard import fabric_lookahead, plan_shards


def det_fabric(minimum=20e-6):
    return NetworkFabric(propagation=Deterministic(minimum))


class TestFabricLookahead:
    def test_deterministic_propagation(self):
        assert fabric_lookahead(det_fabric(15e-6)) == 15e-6

    def test_shifted_propagation(self):
        fabric = NetworkFabric(
            propagation=Shifted(Exponential(10e-6), 5e-6)
        )
        assert fabric_lookahead(fabric) == 5e-6

    def test_default_exponential_is_zero(self):
        assert fabric_lookahead(NetworkFabric()) == 0.0


class TestPlanShards:
    def test_contiguous_and_balanced(self):
        machines = [f"m{i}" for i in range(8)]
        plan = plan_shards(machines, 4, det_fabric())
        assert plan.sharded
        assert plan.lookahead == 20e-6
        assert plan.fallback_reason is None
        assert [plan.assignments[m] for m in machines] == [
            0, 0, 1, 1, 2, 2, 3, 3
        ]
        assert plan.machines_of(2) == ["m4", "m5"]

    def test_assignment_is_deterministic(self):
        machines = [f"m{i}" for i in range(11)]
        plans = [plan_shards(machines, 3, det_fabric()) for _ in range(3)]
        assert plans[0].assignments == plans[1].assignments
        assert plans[1].assignments == plans[2].assignments

    def test_duplicate_machine_rejected(self):
        with pytest.raises(ShardingError, match="duplicate machine"):
            plan_shards(["a", "b", "a"], 2, det_fabric())

    def test_num_shards_below_one_rejected(self):
        with pytest.raises(ShardingError, match="num_shards"):
            plan_shards(["a", "b"], 0, det_fabric())

    def test_single_shard_needs_no_lookahead(self):
        plan = plan_shards(["a", "b"], 1, NetworkFabric())
        assert not plan.sharded
        assert plan.fallback_reason is None
        assert plan.assignments == {"a": 0, "b": 0}

    def test_zero_lookahead_falls_back_loudly(self):
        with pytest.warns(RuntimeWarning, match="lookahead"):
            plan = plan_shards(["a", "b", "c"], 2, NetworkFabric())
        assert not plan.sharded
        assert plan.fallback_reason is not None
        assert set(plan.assignments.values()) == {0}

    def test_fewer_units_than_shards_falls_back_loudly(self):
        with pytest.warns(RuntimeWarning, match="placeable unit"):
            plan = plan_shards(["a", "b"], 3, det_fabric())
        assert not plan.sharded
        assert "placeable unit" in plan.fallback_reason
