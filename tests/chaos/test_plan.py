"""FaultPlan: seeded determinism, rates, priority, windows."""

import pytest

from repro.chaos import (
    CORRUPT,
    DROP,
    DUPLICATE,
    FaultPlan,
    PARTITION_DROP,
)
from repro.chaos.plan import REORDER, REORDER_MAX_S
from repro.errors import ChaosError


class TestValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(corrupt_rate=-0.1)

    def test_empty_windows_are_rejected(self):
        plan = FaultPlan()
        with pytest.raises(ChaosError):
            plan.partition({"a"}, {"b"}, start=5.0, end=5.0)

    def test_overlapping_partition_sides_are_rejected(self):
        with pytest.raises(ChaosError):
            FaultPlan().partition({"a", "b"}, {"b", "c"}, 0.0, 1.0)


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        plans = [
            FaultPlan(seed=7, drop_rate=0.2, dup_rate=0.2, corrupt_rate=0.1)
            for _ in range(2)
        ]
        sequences = [
            [plan.decide("choice") for _ in range(200)] for plan in plans
        ]
        assert sequences[0] == sequences[1]

    def test_different_seed_different_decisions(self):
        a = FaultPlan(seed=1, drop_rate=0.3, reorder_rate=0.3)
        b = FaultPlan(seed=2, drop_rate=0.3, reorder_rate=0.3)
        assert [a.decide("choice") for _ in range(100)] != [
            b.decide("choice") for _ in range(100)
        ]


class TestDecide:
    def test_zero_rates_never_fault(self):
        plan = FaultPlan(seed=3)
        assert all(plan.decide("choice") is None for _ in range(100))

    def test_certain_drop_always_drops(self):
        plan = FaultPlan(seed=3, drop_rate=0.999999)
        assert all(plan.decide("choice") == (DROP, 0.0) for _ in range(50))

    def test_drop_takes_priority_over_corrupt(self):
        plan = FaultPlan(seed=3, drop_rate=0.999999, corrupt_rate=0.999999)
        assert plan.decide("choice")[0] == DROP

    def test_one_fault_per_transmission(self):
        plan = FaultPlan(
            seed=11, drop_rate=0.3, dup_rate=0.3, corrupt_rate=0.3, reorder_rate=0.3,
        )
        for _ in range(500):
            decision = plan.decide("choice")
            assert decision is None or decision[0] in (DROP, CORRUPT, DUPLICATE, REORDER)

    def test_protected_kinds_are_exempt(self):
        plan = FaultPlan(seed=5, drop_rate=0.999999)
        assert plan.decide("heartbeat") is None
        assert plan.decide("choice") is not None

    def test_kinds_filter_restricts_faults(self):
        plan = FaultPlan(seed=5, drop_rate=0.999999, kinds=("payload",))
        assert plan.decide("choice") is None
        assert plan.decide("payload") == (DROP, 0.0)

    def test_reorder_delay_is_bounded(self):
        plan = FaultPlan(seed=9, reorder_rate=0.999999)
        for _ in range(100):
            action, extra = plan.decide("choice")
            assert action == REORDER and 0.0 <= extra <= REORDER_MAX_S


class TestWindows:
    def test_partition_cuts_both_directions_only_inside_window(self):
        plan = FaultPlan()
        plan.partition({"gw"}, {"shard-1"}, start=1.0, end=2.0)
        assert plan.severed("gw", "shard-1", 1.5) == PARTITION_DROP
        assert plan.severed("shard-1", "gw", 1.5) == PARTITION_DROP
        assert plan.severed("gw", "shard-1", 0.5) is None
        assert plan.severed("gw", "shard-1", 2.0) is None  # end exclusive
        assert plan.severed("gw", "shard-2", 1.5) is None

    def test_horizon_is_latest_window_edge(self):
        plan = FaultPlan()
        assert plan.horizon == 0.0
        plan.partition({"a"}, {"b"}, 1.0, 4.0)
        plan.partition({"c"}, {"d"}, 2.0, 6.5)
        assert plan.horizon == 6.5
