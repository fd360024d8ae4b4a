"""Tests for deterministic fault-plan generation."""

import pytest

NAN, INF = float("nan"), float("inf")

from repro.robust.faults import (
    FaultPlan,
    LinkSlowdown,
    ServerCrash,
    TransferFault,
)
from repro.util.errors import ConfigurationError
from repro.workloads.regular import paper_instance


@pytest.fixture(scope="module")
def instance():
    return paper_instance(replicas=2, num_servers=10, num_objects=30, rng=13)


class TestGenerate:
    def test_deterministic_per_seed(self, instance):
        a = FaultPlan.generate(instance, 0.2, seed=42, horizon=100.0)
        b = FaultPlan.generate(instance, 0.2, seed=42, horizon=100.0)
        assert a == b

    def test_different_seeds_differ(self, instance):
        a = FaultPlan.generate(instance, 0.2, seed=1, horizon=100.0)
        b = FaultPlan.generate(instance, 0.2, seed=2, horizon=100.0)
        assert a != b

    def test_zero_rate_is_empty(self, instance):
        plan = FaultPlan.generate(instance, 0.0, seed=5, horizon=100.0)
        assert plan.is_empty
        assert plan.num_hard_faults == 0

    def test_events_within_bounds(self, instance):
        plan = FaultPlan.generate(instance, 0.5, seed=3, horizon=50.0)
        for crash in plan.crashes:
            assert 0 <= crash.time < 50.0
            assert 0 <= crash.server < instance.num_servers
        for slow in plan.slowdowns:
            assert slow.factor >= 2.0
            assert slow.target != slow.source
            assert 0 <= slow.target < instance.num_servers
            assert 0 <= slow.source <= instance.dummy

    def test_rate_validation(self, instance):
        with pytest.raises(ConfigurationError):
            FaultPlan.generate(instance, 1.0, seed=0)
        with pytest.raises(ConfigurationError):
            FaultPlan.generate(instance, -0.1, seed=0)
        with pytest.raises(ConfigurationError):
            FaultPlan.generate(instance, 0.1, seed=0, horizon=0.0)

    @pytest.mark.parametrize("horizon", [NAN, INF, -INF])
    def test_non_finite_horizon_rejected(self, instance, horizon):
        with pytest.raises(ConfigurationError, match="finite"):
            FaultPlan.generate(instance, 0.1, seed=0, horizon=horizon)


class TestPlanValueObject:
    def test_event_views_sorted(self):
        plan = FaultPlan(
            transfer_faults=(TransferFault(7), TransferFault(2)),
            crashes=(ServerCrash(9.0, 1), ServerCrash(3.0, 2)),
            slowdowns=(LinkSlowdown(5.0, 1, 2, 3.0),),
        )
        assert plan.fail_attempts() == {2, 7}
        assert plan.crash_events() == [(3.0, 2), (9.0, 1)]
        assert plan.slowdown_events() == [(5.0, 1, 2, 3.0)]
        assert plan.num_hard_faults == 4

    def test_invalid_events_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(transfer_faults=(TransferFault(-1),))
        with pytest.raises(ConfigurationError):
            FaultPlan(crashes=(ServerCrash(-1.0, 0),))
        with pytest.raises(ConfigurationError):
            FaultPlan(slowdowns=(LinkSlowdown(0.0, 0, 1, 0.5),))

    @pytest.mark.parametrize("value", [NAN, INF, -INF])
    def test_non_finite_numbers_rejected(self, value):
        # NaN makes every ordered comparison false, so bound checks alone
        # let it through; +inf passes the lower bounds.
        with pytest.raises(ConfigurationError, match="finite"):
            FaultPlan(crashes=(ServerCrash(value, 0),))
        with pytest.raises(ConfigurationError, match="finite"):
            FaultPlan(slowdowns=(LinkSlowdown(value, 0, 1, 2.0),))
        with pytest.raises(ConfigurationError, match="finite"):
            FaultPlan(slowdowns=(LinkSlowdown(0.0, 0, 1, value),))

    def test_generated_plans_name_only_instance_servers(self, instance):
        for seed in range(5):
            plan = FaultPlan.generate(instance, 0.5, seed=seed, horizon=9.0)
            plan.check_servers(instance.num_servers)

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(crashes=(ServerCrash(0.0, 10),)),
            FaultPlan(crashes=(ServerCrash(0.0, -1),)),
            FaultPlan(slowdowns=(LinkSlowdown(0.0, 10, 1, 2.0),)),
            FaultPlan(slowdowns=(LinkSlowdown(0.0, 1, 11, 2.0),)),
            FaultPlan(slowdowns=(LinkSlowdown(0.0, 1, -3, 2.0),)),
        ],
    )
    def test_out_of_range_servers_rejected(self, instance, plan):
        from repro.robust import execute_with_repair

        with pytest.raises(ConfigurationError, match="server"):
            plan.check_servers(instance.num_servers)
        with pytest.raises(ConfigurationError, match="server"):
            execute_with_repair(instance, plan, pipeline="GOLCF", rng=0)
