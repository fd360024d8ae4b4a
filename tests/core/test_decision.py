"""Tests for the RTSP-decision API (paper §3.4's decision problem)."""

import pytest

from repro.exact import decide_rtsp, solve_optimal
from repro.npc import (
    KnapsackInstance,
    decision_threshold,
    reduce_knapsack_to_rtsp,
    solve_knapsack,
)


class TestDecideRtsp:
    def test_yes_at_the_optimum(self, fig1):
        opt = solve_optimal(fig1).cost
        assert decide_rtsp(fig1, opt) is True

    def test_yes_at_exact_budget(self, fig1):
        opt = solve_optimal(fig1).cost
        assert decide_rtsp(fig1, opt + 10.0) is True

    def test_no_below_the_optimum(self, fig1):
        opt = solve_optimal(fig1).cost
        assert decide_rtsp(fig1, opt - 0.5) is False

    def test_no_at_zero_budget_with_work_to_do(self, fig3):
        assert decide_rtsp(fig3, 0.0) is False

    def test_yes_at_zero_budget_for_noop(self):
        import numpy as np

        from repro.model.instance import RtspInstance

        x = np.array([[1]], dtype=np.int8)
        inst = RtspInstance.create([1.0], [1.0], np.zeros((1, 1)), x, x)
        assert decide_rtsp(inst, 0.0) is True

    def test_uncertified_when_budget_exhausted(self, fig3):
        opt = solve_optimal(fig3).cost
        # three nodes leave the incumbent above the budget and the root
        # bound at it, so neither answer is certified
        assert decide_rtsp(fig3, opt - 1.0, max_nodes=3) is None

    def test_monotone_in_budget(self, fig3):
        opt = solve_optimal(fig3).cost
        answers = [
            decide_rtsp(fig3, b)
            for b in (opt - 1.0, opt, opt + 5.0)
        ]
        assert answers == [False, True, True]


class TestKnapsackDecisionBridge:
    """The paper's reduction, exercised through the decision API: the
    Knapsack-decision answer transfers to RTSP-decision at the paper's
    threshold."""

    @pytest.fixture(scope="class")
    def setup(self):
        knap = KnapsackInstance.create(
            benefits=[3, 2, 4], sizes=[2, 3, 4], capacity=5
        )
        return knap, reduce_knapsack_to_rtsp(knap), solve_knapsack(knap)

    def test_yes_at_k_equal_optimum(self, setup):
        knap, reduction, dp = setup
        threshold = decision_threshold(knap, dp.value)
        assert decide_rtsp(
            reduction.rtsp, threshold, allow_staging=False
        ) is True

    def test_no_above_optimum_value(self, setup):
        knap, reduction, dp = setup
        threshold = decision_threshold(knap, dp.value + 1)
        assert decide_rtsp(
            reduction.rtsp, threshold, allow_staging=False
        ) is False
