"""Tests for Schedule replay, validation and accounting."""

import numpy as np
import pytest

from repro.model.actions import Delete, Transfer
from repro.model.instance import RtspInstance
from repro.model.schedule import (
    KIND_DELETE,
    KIND_TRANSFER,
    Schedule,
    actions_from_arrays,
)
from repro.util.errors import InvalidActionError, InvalidScheduleError


@pytest.fixture
def inst():
    x_old = np.array([[1, 0], [0, 1], [0, 0]], dtype=np.int8)
    x_new = np.array([[0, 0], [0, 1], [1, 0]], dtype=np.int8)
    costs = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    return RtspInstance.create([2.0, 1.0], [2.0, 2.0, 2.0], costs, x_old, x_new)


@pytest.fixture
def good(inst):
    return Schedule([Transfer(2, 0, 0), Delete(0, 0)])


class TestSequenceProtocol:
    def test_len_iter_getitem(self, good):
        assert len(good) == 2
        assert list(good)[0] == Transfer(2, 0, 0)
        assert good[1] == Delete(0, 0)

    def test_equality(self, good):
        assert good == Schedule([Transfer(2, 0, 0), Delete(0, 0)])
        assert good != Schedule([Delete(0, 0)])

    def test_editing(self):
        s = Schedule()
        s.append(Delete(0, 0))
        s.insert(0, Transfer(1, 0, 0))
        s.extend([Delete(1, 0)])
        assert len(s) == 3
        assert s.pop(2) == Delete(1, 0)

    def test_move(self):
        s = Schedule([Delete(0, 0), Delete(1, 1), Delete(2, 0)])
        s.move(2, 0)
        assert s[0] == Delete(2, 0)
        assert s[1] == Delete(0, 0)

    def test_copy_is_shallow_fork(self, good):
        dup = good.copy()
        dup.append(Delete(1, 1))
        assert len(good) == 2 and len(dup) == 3


class TestViews:
    def test_transfers_and_deletions(self, good):
        assert good.transfers() == [Transfer(2, 0, 0)]
        assert good.deletions() == [Delete(0, 0)]

    def test_dummy_positions(self, inst):
        s = Schedule([Delete(0, 0), Transfer(2, 0, inst.dummy)])
        assert s.dummy_transfer_positions(inst) == [1]
        assert s.count_dummy_transfers(inst) == 1


class TestCost:
    def test_transfer_cost(self, inst, good):
        assert good.cost(inst) == 4.0  # size 2 * cost 2

    def test_deletions_are_free(self, inst):
        assert Schedule([Delete(0, 0)]).cost(inst) == 0.0

    def test_action_cost(self, inst, good):
        assert good.action_cost(inst, 0) == 4.0
        assert good.action_cost(inst, 1) == 0.0

    def test_dummy_transfer_cost(self, inst):
        s = Schedule([Delete(0, 0), Transfer(2, 0, inst.dummy)])
        assert s.cost(inst) == 2.0 * inst.dummy_cost


class TestValidation:
    def test_valid_schedule(self, inst, good):
        report = good.validate(inst)
        assert report.ok
        assert report.cost == 4.0
        assert report.dummy_transfers == 0
        assert good.is_valid(inst)

    def test_invalid_action_reported_with_position(self, inst):
        s = Schedule([Delete(0, 0), Transfer(2, 0, 0)])  # source deleted
        report = s.validate(inst)
        assert not report.ok
        assert report.position == 1
        assert "does not replicate" in report.message

    def test_wrong_final_state(self, inst):
        s = Schedule([Transfer(2, 0, 0)])  # superfluous replica remains
        report = s.validate(inst)
        assert not report.ok
        assert report.position is None
        assert "differs from X_new" in report.message

    def test_cost_accumulated_up_to_failure(self, inst):
        s = Schedule([Transfer(2, 0, 0), Delete(1, 0)])
        report = s.validate(inst)
        assert not report.ok
        assert report.cost == 4.0

    def test_require_valid_raises(self, inst):
        with pytest.raises(InvalidScheduleError):
            Schedule([Delete(2, 0)]).require_valid(inst)

    def test_replay_returns_final_state(self, inst, good):
        state = good.replay(inst)
        assert state.matches(inst.x_new)

    def test_replay_partial(self, inst, good):
        state = good.replay(inst, stop=1)
        assert state.holds(2, 0) and state.holds(0, 0)

    def test_replay_raises_on_invalid(self, inst):
        with pytest.raises(InvalidActionError):
            Schedule([Transfer(2, 0, 1)]).replay(inst)

    def test_empty_schedule_valid_iff_schemes_equal(self, inst):
        assert not Schedule().is_valid(inst)
        same = RtspInstance.create(
            inst.sizes,
            inst.capacities,
            inst.costs,
            inst.x_old,
            inst.x_old,
        )
        assert Schedule().is_valid(same)

    def test_summary_mentions_validity(self, inst, good):
        assert "valid" in good.summary(inst)
        assert "INVALID" in Schedule([Delete(2, 0)]).summary(inst)


def test_actions_from_arrays_and_schedule_from_arrays():
    kinds = [KIND_TRANSFER, KIND_DELETE]
    actions = actions_from_arrays(kinds, [4, 2], [9, 9], [1, 0])
    assert actions == [Transfer(4, 9, 1), Delete(2, 9)]
    sched = Schedule.from_arrays(kinds, [4, 2], [9, 9], [1, 0])
    assert sched.actions() == actions
