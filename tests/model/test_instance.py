"""Tests for RtspInstance."""

import numpy as np
import pytest

from repro.model.instance import RtspInstance
from repro.util.errors import ConfigurationError, InfeasibleInstanceError


def make(sizes=(1.0, 1.0), capacities=(2.0, 2.0), **kw):
    x_old = kw.pop("x_old", np.array([[1, 0], [0, 1]], dtype=np.int8))
    x_new = kw.pop("x_new", np.array([[0, 1], [1, 0]], dtype=np.int8))
    costs = kw.pop("costs", np.array([[0.0, 2.0], [2.0, 0.0]]))
    return RtspInstance.create(sizes, capacities, costs, x_old, x_new, **kw)


class TestConstruction:
    def test_plain_costs_get_dummy_extended(self):
        inst = make()
        assert inst.costs.shape == (3, 3)
        assert inst.dummy == 2
        assert inst.dummy_cost == 3.0  # a * (max(2) + 1)

    def test_dummy_constant(self):
        inst = make(dummy_constant=2.0)
        assert inst.dummy_cost == 6.0

    def test_pre_extended_costs_accepted(self):
        ext = np.array(
            [[0.0, 2.0, 9.0], [2.0, 0.0, 9.0], [9.0, 9.0, 0.0]]
        )
        inst = make(costs=ext)
        assert inst.dummy_cost == 9.0

    def test_wrong_cost_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            make(costs=np.zeros((4, 4)))

    def test_shape_mismatches_rejected(self):
        with pytest.raises(ConfigurationError):
            make(sizes=(1.0,))
        with pytest.raises(ConfigurationError):
            make(capacities=(1.0,))
        with pytest.raises(ConfigurationError):
            make(x_new=np.zeros((3, 2), dtype=np.int8))

    def test_arrays_frozen(self):
        inst = make()
        with pytest.raises(ValueError):
            inst.x_old[0, 0] = 0
        with pytest.raises(ValueError):
            inst.costs[0, 1] = 5.0

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigurationError):
            make(sizes=(0.0, 1.0))

    def test_nan_costs_rejected_at_instance_boundary(self):
        # A NaN link compares false under every ``<``: a nearest-source
        # scan would skip it while an ``argmin`` would select it.
        costs = np.array([[0.0, 1.0], [np.nan, 0.0]])
        with pytest.raises(ConfigurationError, match="NaN"):
            RtspInstance.create(
                sizes=[1.0],
                capacities=[2.0, 2.0],
                costs=costs,
                x_old=np.array([[1], [0]], dtype=np.int8),
                x_new=np.array([[0], [1]], dtype=np.int8),
            )

    @pytest.mark.parametrize(
        "field", [{"sizes": (np.nan, 1.0)}, {"capacities": (2.0, np.nan)}]
    )
    def test_nan_sizes_and_capacities_rejected(self, field):
        # ``min`` of an array holding NaN is NaN, which passes both the
        # positivity and the non-negativity check.
        with pytest.raises(ConfigurationError, match="NaN"):
            make(**field)


class TestFeasibility:
    def test_infeasible_old_scheme(self):
        with pytest.raises(InfeasibleInstanceError):
            make(capacities=(0.5, 2.0))

    def test_infeasible_new_scheme(self):
        # both objects (1.5 + 1.0 = 2.5) exceed server 0's capacity of 2
        x_new = np.array([[1, 1], [0, 0]], dtype=np.int8)
        with pytest.raises(InfeasibleInstanceError):
            make(sizes=(1.5, 1.0), x_new=x_new)

    def test_validation_can_be_skipped(self):
        inst = make(capacities=(0.5, 2.0), validate=False)
        with pytest.raises(InfeasibleInstanceError):
            inst.check_feasible()


class TestDerivedViews:
    def test_dimensions(self):
        inst = make()
        assert inst.num_servers == 2
        assert inst.num_objects == 2

    def test_diff_counts(self):
        inst = make()
        assert inst.diff_counts() == (2, 2)

    def test_outstanding_superfluous(self):
        inst = make()
        assert inst.outstanding().tolist() == [[0, 1], [1, 0]]
        assert inst.superfluous().tolist() == [[1, 0], [0, 1]]

    def test_loads(self):
        inst = make(sizes=(2.0, 3.0), capacities=(5.0, 5.0))
        assert inst.old_loads().tolist() == [2.0, 3.0]
        assert inst.new_loads().tolist() == [3.0, 2.0]

    def test_transfer_cost(self):
        inst = make(sizes=(2.0, 3.0), capacities=(5.0, 5.0))
        assert inst.transfer_cost(0, 1, 1) == 6.0  # size 3 * cost 2
        assert inst.transfer_cost(0, 0, inst.dummy) == 2.0 * 3.0
