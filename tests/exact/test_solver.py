"""Tests for :mod:`repro.exact.solver` (branch-and-bound)."""

from functools import partial

import numpy as np
import pytest

from repro.analysis.bounds import residual_lower_bound
from repro.analysis.examples import fig1_deadlock_instance, fig3_example_instance
from repro.core import build_pipeline
from repro.exact import (
    BEST_FOUND,
    PROVED_OPTIMAL,
    BranchAndBoundSolver,
    SolverBudget,
    solve_optimal,
)
from repro.model.actions import Transfer
from repro.model.instance import RtspInstance
from repro.obs import MetricsRegistry, use_metrics
from tests.integration.test_exact_vs_heuristics import small_instance


def swap_instance(cost=2.0):
    """Two full servers that must swap their objects via staging/dummy."""
    x_old = np.array([[1, 0], [0, 1]], dtype=np.int8)
    x_new = np.array([[0, 1], [1, 0]], dtype=np.int8)
    costs = np.array([[0.0, cost], [cost, 0.0]])
    return RtspInstance.create([1.0, 1.0], [1.0, 1.0], costs, x_old, x_new)


def spare_server_swap_instance():
    """The two-server swap plus an empty third server to stage through."""
    x_old = np.array([[1, 0], [0, 1], [0, 0]], dtype=np.int8)
    x_new = np.array([[0, 1], [1, 0], [0, 0]], dtype=np.int8)
    costs = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    return RtspInstance.create(
        [1.0, 1.0], [1.0, 1.0, 1.0], costs, x_old, x_new
    )


#: Optima proved by an independent full-source branch and bound (no
#: source canonicalisation, plain per-replica bound), kept as data:
#: name -> (instance factory, allow_staging, optimum).
PINNED_OPTIMA = {
    "fig1": (fig1_deadlock_instance, True, 5.0),
    "fig3": (fig3_example_instance, True, 7.0),
    "two-server-swap": (swap_instance, True, 5.0),
    "spare-swap-staging": (spare_server_swap_instance, True, 4.0),
    "spare-swap-no-staging": (spare_server_swap_instance, False, 5.0),
    **{
        f"small-{seed}": (partial(small_instance, seed, n=3), True, opt)
        for seed, opt in enumerate((10.0, 28.0, 23.5, 23.0, 16.0))
    },
}


class TestOptimality:
    def test_fig1_proved_optimal(self, fig1):
        result = solve_optimal(fig1)
        assert result.status == PROVED_OPTIMAL
        assert result.proved_optimal
        assert result.cost == 5.0
        assert result.lower_bound == result.cost
        assert result.gap_certificate == 0.0
        assert result.schedule.validate(fig1).ok

    def test_fig3_proved_optimal(self, fig3):
        result = solve_optimal(fig3)
        assert result.status == PROVED_OPTIMAL
        assert result.schedule.validate(fig3).ok

    @pytest.mark.parametrize("name", list(PINNED_OPTIMA))
    def test_matches_legacy_exact_solver(self, name):
        factory, allow_staging, optimum = PINNED_OPTIMA[name]
        result = solve_optimal(factory(), allow_staging=allow_staging)
        assert result.status == PROVED_OPTIMAL
        assert result.cost == pytest.approx(optimum)

    def test_never_above_heuristics(self, fig3):
        result = solve_optimal(fig3)
        for spec in ("RDF", "GSDF", "AR", "GOLCF", "GOLCF+H1+H2+OP1"):
            for seed in range(3):
                heuristic = build_pipeline(spec).run(fig3, rng=seed)
                assert result.cost <= heuristic.cost(fig3) + 1e-9

    def test_respects_residual_lower_bound(self, fig1, fig3, tiny_instance):
        for instance in (fig1, fig3, tiny_instance):
            result = solve_optimal(instance)
            bound = residual_lower_bound(instance, instance.x_old)
            assert result.cost >= bound - 1e-9

    def test_swap_breaks_cycle_with_single_dummy_fetch(self):
        # Two full servers swapping their objects deadlock without the
        # dummy (paper Fig. 1 in miniature). The optimum sacrifices one
        # replica, moves the other directly (cost 2), and re-fetches the
        # sacrificed object from the dummy (cost 3) — never two dummy
        # fetches (cost 6).
        instance = swap_instance(cost=2.0)
        result = solve_optimal(instance)
        assert result.proved_optimal
        assert result.cost == pytest.approx(5.0)
        assert result.schedule.count_dummy_transfers(instance) == 1

    def test_trivial_instance_zero_cost(self):
        x = np.array([[1]], dtype=np.int8)
        instance = RtspInstance.create(
            [1.0], [1.0], np.zeros((1, 1)), x, x.copy()
        )
        result = solve_optimal(instance)
        assert result.proved_optimal
        assert result.cost == 0.0
        assert len(result.schedule) == 0


class TestDeterminismAndBudget:
    def test_deterministic_across_runs(self, fig3):
        a = solve_optimal(fig3)
        b = solve_optimal(fig3)
        assert a.cost == b.cost
        assert list(a.schedule) == list(b.schedule)
        assert a.stats.nodes == b.stats.nodes

    def test_tiny_node_budget_reports_best_found(self, fig3):
        result = solve_optimal(fig3, budget=SolverBudget(max_nodes=1))
        assert result.status == BEST_FOUND
        assert not result.proved_optimal
        # The seeded incumbent still provides a valid upper bound ...
        assert result.schedule.validate(fig3).ok
        assert np.isfinite(result.cost)
        # ... and the certificate brackets the optimum.
        assert result.lower_bound <= solve_optimal(fig3).cost <= result.cost
        assert result.gap_certificate >= 0.0

    def test_unseeded_tiny_budget_still_sound(self, tiny_instance):
        solver = BranchAndBoundSolver(
            budget=SolverBudget(max_nodes=100_000), seed_incumbent=False
        )
        result = solver.solve(tiny_instance)
        assert result.proved_optimal
        assert result.schedule.validate(tiny_instance).ok

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SolverBudget(max_nodes=0)
        with pytest.raises(ValueError):
            SolverBudget(max_seconds=-1.0)

    def test_counters_published(self, fig1):
        registry = MetricsRegistry()
        with use_metrics(registry):
            solve_optimal(fig1)
        values = registry.counter_values()
        assert values.get("exact.solves") == 1
        assert values.get("exact.nodes", 0) > 0


class TestStagingToggle:
    def test_disallowing_staging_never_beats_allowing(self, fig3):
        with_staging = solve_optimal(fig3, allow_staging=True)
        without = solve_optimal(fig3, allow_staging=False)
        assert with_staging.cost <= without.cost + 1e-9
        assert without.schedule.validate(fig3).ok

    def test_staging_off_never_stages(self):
        instance = spare_server_swap_instance()
        result = solve_optimal(instance, allow_staging=False)
        assert result.proved_optimal
        assert result.cost == pytest.approx(5.0)
        assert all(
            instance.x_new[a.target, a.obj]
            for a in result.schedule
            if isinstance(a, Transfer)
        )
