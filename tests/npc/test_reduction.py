"""Tests for the Knapsack→RTSP reduction (paper §3.4)."""

import itertools

import numpy as np
import pytest

from repro.exact import solve_optimal
from repro.npc.knapsack import KnapsackInstance, solve_knapsack
from repro.npc.reduction import (
    canonical_cost,
    canonical_schedule,
    decision_threshold,
    decode_schedule,
    reduce_knapsack_to_rtsp,
)
from repro.util.errors import ConfigurationError


@pytest.fixture
def knap():
    return KnapsackInstance.create(benefits=[3, 2, 4], sizes=[2, 3, 4], capacity=5)


@pytest.fixture
def reduction(knap):
    return reduce_knapsack_to_rtsp(knap)


class TestConstruction:
    def test_dimensions(self, knap, reduction):
        rtsp = reduction.rtsp
        assert rtsp.num_servers == knap.num_objects + 3
        assert rtsp.num_objects == knap.num_objects + 1

    def test_big_object_size(self, knap, reduction):
        assert reduction.rtsp.sizes[reduction.big_object] == sum(knap.sizes)

    def test_hub_capacity(self, knap, reduction):
        assert (
            reduction.rtsp.capacities[reduction.hub]
            == knap.capacity + sum(knap.sizes)
        )

    def test_placements(self, knap, reduction):
        rtsp = reduction.rtsp
        n = knap.num_objects
        for i in range(n):
            assert rtsp.x_old[i, i] == 1 and rtsp.x_new[i, i] == 1
        assert rtsp.x_old[reduction.hub, reduction.big_object] == 1
        assert rtsp.x_new[reduction.hub, :n].sum() == n
        assert rtsp.x_old[reduction.warehouse, :n].sum() == n
        assert rtsp.x_new[reduction.warehouse, reduction.big_object] == 1

    def test_link_costs(self, knap, reduction):
        rtsp = reduction.rtsp
        assert rtsp.costs[reduction.hub, reduction.warehouse] == 1.0
        product = reduction.size_product
        for i in range(knap.num_objects):
            expected = knap.benefits[i] * product // knap.sizes[i]
            assert rtsp.costs[i, reduction.hub] == expected

    def test_empty_knapsack_rejected(self):
        with pytest.raises(ConfigurationError):
            reduce_knapsack_to_rtsp(KnapsackInstance.create([], [], 1))


class TestCanonicalSchedule:
    def test_valid_for_feasible_subsets(self, knap, reduction):
        for subset in ([], [0], [1], [0, 1], [2]):
            if sum(knap.sizes[i] for i in subset) <= knap.capacity:
                schedule = canonical_schedule(reduction, subset)
                assert schedule.validate(reduction.rtsp).ok, subset

    def test_cost_matches_closed_form(self, knap, reduction):
        for subset in ([], [0], [0, 1], [2]):
            schedule = canonical_schedule(reduction, subset)
            assert schedule.cost(reduction.rtsp) == pytest.approx(
                canonical_cost(reduction, subset)
            )

    def test_infeasible_subset_rejected(self, reduction):
        with pytest.raises(ConfigurationError):
            canonical_schedule(reduction, [0, 1, 2])  # weight 9 > 5

    def test_out_of_range_rejected(self, reduction):
        with pytest.raises(ConfigurationError):
            canonical_schedule(reduction, [99])

    def test_better_subsets_cost_less(self, knap, reduction):
        """Higher knapsack value <=> lower canonical cost."""
        feasible = [
            s
            for r in range(knap.num_objects + 1)
            for s in itertools.combinations(range(knap.num_objects), r)
            if sum(knap.sizes[i] for i in s) <= knap.capacity
        ]
        by_value = sorted(
            feasible, key=lambda s: sum(knap.benefits[i] for i in s)
        )
        costs = [canonical_cost(reduction, s) for s in by_value]
        assert costs == sorted(costs, reverse=True)


class TestRoundTrip:
    def test_exact_optimum_equals_dp_optimum(self, knap, reduction):
        dp = solve_knapsack(knap)
        result = solve_optimal(reduction.rtsp, allow_staging=False)
        assert result.proved_optimal
        assert result.cost == pytest.approx(canonical_cost(reduction, dp.chosen))
        subset, value = decode_schedule(reduction, result.schedule)
        assert value == dp.value

    @pytest.mark.parametrize("seed", range(4))
    def test_random_round_trips(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        knap = KnapsackInstance.create(
            benefits=rng.integers(1, 6, size=n).tolist(),
            sizes=rng.integers(2, 5, size=n).tolist(),
            capacity=int(rng.integers(2, 8)),
        )
        dp = solve_knapsack(knap)
        reduction = reduce_knapsack_to_rtsp(knap)
        result = solve_optimal(reduction.rtsp, allow_staging=False)
        assert result.proved_optimal
        assert result.cost == pytest.approx(
            canonical_cost(reduction, dp.chosen)
        )

    def test_decision_threshold_separates(self, knap, reduction):
        """Cost <= threshold(K) is achievable iff knapsack value >= K."""
        dp = solve_knapsack(knap)
        result = solve_optimal(reduction.rtsp, allow_staging=False)
        assert result.cost <= decision_threshold(knap, dp.value)
        assert result.cost > decision_threshold(knap, dp.value + 1)
