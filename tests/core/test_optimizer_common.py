"""Tests for the optimizer machinery (ArrayState, window replays,
ScheduleIndex queries)."""

from typing import List, Optional, Sequence

import numpy as np
import pytest

from repro.core.optimizers.common import (
    ArrayState,
    ReplayViews,
    ScheduleIndex,
    actions_cost,
    window_valid,
)
from repro.model.actions import Action, Delete, Transfer
from repro.model.instance import RtspInstance
from repro.model.state import CAPACITY_EPS, SystemState


def window_replay_with_repairs(
    start_state: ArrayState,
    window: Sequence[Action],
    max_repairs: int = 64,
) -> Optional[List[Action]]:
    """Reference for :meth:`ScheduleIndex.rewrite_repairs`: replay the
    whole ``window`` from a copy of ``start_state``, re-pointing each
    transfer whose source does not hold its object to the nearest
    holder at that point.

    Returns the repaired window, or ``None`` when an action is invalid
    (a transfer whose target already holds the object or lacks room, a
    deletion of an absent replica, anything at the dummy) or more than
    ``max_repairs`` transfers need a new source.
    """
    views = start_state.views
    n, dummy, sizes = views.num_objects, views.dummy, views.sizes
    state = start_state.copy()
    cells, free = state.cells, state.free
    out: List[Action] = []
    repairs = 0
    for action in window:
        if isinstance(action, Transfer):
            i, k, j = action.target, action.obj, action.source
            if i == dummy:
                return None
            c = i * n + k
            if cells[c] or free[i] + CAPACITY_EPS < sizes[k]:
                return None
            if i == j or (j != dummy and not cells[j * n + k]):
                # the source no longer holds the object: re-point
                if repairs >= max_repairs:
                    return None
                action = action.with_source(state.nearest(i, k))
                repairs += 1
            cells[c] = 1
            free[i] -= sizes[k]
        elif isinstance(action, Delete):
            i, k = action.server, action.obj
            if i == dummy:
                return None
            c = i * n + k
            if not cells[c]:
                return None
            cells[c] = 0
            free[i] += sizes[k]
        else:
            return None
        out.append(action)
    return out


@pytest.fixture
def inst():
    x_old = np.array([[1, 0], [0, 1], [0, 0]], dtype=np.int8)
    x_new = np.array([[0, 0], [0, 1], [1, 0]], dtype=np.int8)
    costs = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    return RtspInstance.create([1.0, 1.0], [1.0, 1.0, 1.0], costs, x_old, x_new)


class TestArrayState:
    def test_mirrors_system_state_semantics(self, inst):
        """ArrayState (and window_valid) and SystemState agree on validity
        for a batch of random action attempts."""
        rng = np.random.default_rng(0)
        heavy = SystemState(inst)
        light = ArrayState(inst)
        candidates = [
            Transfer(2, 0, 0),
            Transfer(2, 0, 1),
            Transfer(0, 1, 1),
            Transfer(2, 1, inst.dummy),
            Delete(0, 0),
            Delete(2, 0),
            Transfer(inst.dummy, 0, 0),
            Transfer(0, 0, 0),
        ]
        for _ in range(50):
            a = candidates[int(rng.integers(0, len(candidates)))]
            assert light.is_valid(a) == heavy.is_valid(a), str(a)
            # the inlined replay loop agrees on a one-action window
            assert window_valid(light, [a]) == heavy.is_valid(a), str(a)
            if light.is_valid(a):
                light.apply(a)
                heavy.apply(a)

    def test_copy_independent(self, inst):
        s = ArrayState(inst)
        dup = s.copy()
        s.apply(Delete(0, 0))
        assert dup.holds(0, 0) and not s.holds(0, 0)

    def test_nearest_matches_system_state(self, inst):
        light = ArrayState(inst)
        heavy = SystemState(inst)
        for target in range(3):
            for obj in range(2):
                assert light.nearest(target, obj) == heavy.nearest(target, obj)

    def test_nearest_exclude(self, inst):
        light = ArrayState(inst)
        assert light.nearest(2, 0, exclude=0) == inst.dummy

    def test_try_apply(self, inst):
        s = ArrayState(inst)
        assert not s.try_apply(Transfer(2, 0, 1))
        assert s.try_apply(Transfer(2, 0, 0))
        assert s.holds(2, 0)


class TestNearestTieRule:
    """``ArrayState.nearest`` against ``SystemState.nearest`` on ties.

    Every link costs 1, 2 or 3 and the dummy costs 3, so equal-cost
    holders and holders priced exactly like the dummy are everywhere.
    Object 0 is held by servers 0-19 (a dense column, more than 16
    holders), object 1 by servers 2, 5 and 9, object 2 by server 4 alone,
    and object 3 by nobody.
    """

    M = 24
    DUMMY_COST = 3.0

    @pytest.fixture
    def tie_inst(self):
        m = self.M
        costs = np.full((m + 1, m + 1), self.DUMMY_COST)
        for i in range(m):
            for j in range(m):
                costs[i, j] = 0.0 if i == j else 1.0 + (i * 7 + j * 3) % 3
        # Target 21: every real server costs exactly the dummy's price.
        costs[21, :m] = self.DUMMY_COST
        # Target 22: servers 5 and 9 tie for the cheapest link.
        costs[22, :m] = 2.0
        costs[22, [5, 9]] = 1.0
        costs[22, 22] = 0.0
        x_old = np.zeros((m, 4), dtype=np.int8)
        x_old[:20, 0] = 1
        x_old[[2, 5, 9], 1] = 1
        x_old[4, 2] = 1
        return RtspInstance.create(
            [1.0] * 4, [10.0] * m, costs, x_old, x_old.copy()
        )

    def test_holder_at_dummy_price_beats_dummy(self, tie_inst):
        light = ArrayState(tie_inst)
        assert light.nearest(21, 2) == 4  # sparse: the lone holder
        assert light.nearest(21, 1) == 2  # sparse: lowest of three
        assert light.nearest(21, 0) == 0  # dense: lowest of twenty
        assert light.nearest(21, 3) == tie_inst.dummy  # no holder at all

    def test_lowest_index_wins_among_equal_costs(self, tie_inst):
        light = ArrayState(tie_inst)
        assert light.nearest(22, 1) == 5  # sparse: 5 and 9 tie
        assert light.nearest(22, 0) == 5  # dense: 5 and 9 tie

    def test_target_and_exclude_are_skipped(self, tie_inst):
        light = ArrayState(tie_inst)
        assert light.nearest(21, 2, exclude=4) == tie_inst.dummy
        assert light.nearest(21, 1, exclude=2) == 5
        assert light.nearest(22, 1, exclude=5) == 9
        assert light.nearest(22, 0, exclude=5) == 9
        assert light.nearest(5, 1) != 5
        assert light.nearest(0, 0) != 0

    def test_matches_system_state_everywhere(self, tie_inst):
        light = ArrayState(tie_inst)
        heavy = SystemState(tie_inst)
        for target in range(self.M):
            for obj in range(4):
                for exclude in range(-1, self.M):
                    banned = () if exclude < 0 else (exclude,)
                    assert light.nearest(target, obj, exclude) == heavy.nearest(
                        target, obj, banned
                    ), (target, obj, exclude)


def _index(instance, actions):
    return ScheduleIndex(ArrayState(instance), actions)


class TestStateAtPosition:
    def test_holders_before_positions(self, inst):
        actions = [Delete(0, 0), Transfer(2, 0, inst.dummy), Delete(2, 0)]
        index = _index(inst, actions)
        assert index.holders_at(0, 0)[0]
        assert not index.holders_at(0, 1)[0]
        assert index.holders_at(0, 2)[2]

    def test_free_space_before_positions(self, inst):
        index = _index(inst, [Delete(0, 0)])
        assert index.free_at(0, 0) == 0.0
        assert index.free_at(0, 1) == 1.0
        assert index.free_at(2, 1) == 1.0


class TestWindowReplay:
    def test_window_valid_accepts(self, inst):
        start = ArrayState(inst)
        assert window_valid(start, [Transfer(2, 0, 0), Delete(0, 0)])

    def test_window_valid_rejects_and_preserves_start(self, inst):
        start = ArrayState(inst)
        assert not window_valid(start, [Delete(0, 0), Transfer(2, 0, 0)])
        assert start.holds(0, 0)  # start state untouched

    def test_repairs_broken_source(self, inst):
        start = ArrayState(inst)
        window = [Delete(0, 0), Transfer(2, 0, 0)]
        repaired = window_replay_with_repairs(start, window)
        assert repaired is not None
        assert repaired[1] == Transfer(2, 0, inst.dummy)

    def test_unrepairable_returns_none(self, inst):
        start = ArrayState(inst)
        # deleting an absent replica cannot be repaired
        assert window_replay_with_repairs(start, [Delete(2, 0)]) is None

    def test_repair_budget(self, inst):
        start = ArrayState(inst)
        window = [Delete(0, 0), Transfer(2, 0, 0)]
        assert window_replay_with_repairs(start, window, max_repairs=0) is None


class TestRewriteRepairs:
    """``ScheduleIndex.rewrite_repairs`` on the reference cases above."""

    def test_repairs_broken_source(self, inst):
        # hoist the deletion of S0's replica before the transfer it feeds
        index = _index(inst, [Transfer(2, 0, 0), Delete(0, 0)])
        head, subst = [Delete(0, 0)], {1: ()}
        assert index.rewrite_repairs(0, 2, head, subst, 64) == {1: inst.dummy}
        assert not index.rewrite_valid(0, 2, head, subst)

    def test_unrepairable_returns_none(self, inst):
        index = _index(inst, [Transfer(2, 0, 0)])
        assert index.rewrite_repairs(0, 1, [Delete(2, 0)], {}, 64) is None

    def test_repair_budget(self, inst):
        index = _index(inst, [Transfer(2, 0, 0), Delete(0, 0)])
        assert index.rewrite_repairs(0, 2, [Delete(0, 0)], {1: ()}, 0) is None

    def test_no_repair_is_empty(self, inst):
        index = _index(inst, [Transfer(2, 0, 0), Delete(0, 0)])
        assert index.rewrite_repairs(0, 2, [], {}, 64) == {}
        assert index.rewrite_valid(0, 2, [], {})

    def test_offsets_count_substituted_actions(self, inst):
        """A repair's offset counts the actions each substitution puts
        in place of one position."""
        index = _index(inst, [Transfer(2, 0, 0), Delete(0, 0), Transfer(0, 1, 1)])
        # The deletion goes to the head; position 2 stands for its own
        # transfer followed by the one moved from position 0, which has
        # lost its source.
        head = [Delete(0, 0)]
        subst = {0: (), 1: (), 2: (Transfer(0, 1, 1), Transfer(2, 0, 0))}
        window = index.window(0, 3, head, subst)
        assert window == [Delete(0, 0), Transfer(0, 1, 1), Transfer(2, 0, 0)]
        repairs = index.rewrite_repairs(0, 3, head, subst, 64)
        assert repairs == {2: inst.dummy}
        start = ArrayState(inst)
        assert window_replay_with_repairs(start, window) == [
            Delete(0, 0), Transfer(0, 1, 1), Transfer(2, 0, inst.dummy)
        ]


class TestAccounting:
    def test_actions_cost(self, inst):
        actions = [Transfer(2, 0, 0), Delete(0, 0), Transfer(0, 1, 1)]
        assert actions_cost(ReplayViews(inst), actions) == 2.0 + 1.0

    def test_actions_cost_adds_in_list_order(self):
        """The sum is the left-to-right float sum over the transfers, bit
        for bit, on sizes and costs whose sums round."""
        rng = np.random.default_rng(5)
        m, n = 6, 8
        costs = np.round(rng.random((m + 1, m + 1)) * 10, 1)
        inst = RtspInstance.create(
            np.round(rng.random(n) + 0.1, 1),
            [100.0] * m,
            costs,
            np.zeros((m, n), dtype=np.int8),
            np.zeros((m, n), dtype=np.int8),
        )
        actions = [
            Transfer(int(i), int(k), int(j)) if i != j else Delete(int(i), int(k))
            for i, k, j in rng.integers(0, [m, n, m + 1], size=(200, 3))
        ]
        expected = 0.0
        for a in actions:
            if isinstance(a, Transfer):
                expected += inst.sizes[a.obj] * inst.costs[a.target, a.source]
        assert actions_cost(ReplayViews(inst), actions) == expected

    def test_index_lists_dummy_transfers(self, inst):
        actions = [Transfer(2, 0, inst.dummy), Transfer(0, 1, 1)]
        assert _index(inst, actions).dummies == [0]


class TestStructureQueries:
    """Index queries on hand-made lists; the lists need not be valid
    schedules, only in range of a 3-server, 9-object instance."""

    @pytest.fixture
    def wide(self):
        empty = np.zeros((3, 9), dtype=np.int8)
        costs = np.ones((3, 3)) - np.eye(3)
        return RtspInstance.create([1.0] * 9, [9.0] * 3, costs, empty, empty)

    def test_deletion_positions_before_nearest_first(self, wide):
        actions = [Delete(0, 5), Transfer(1, 5, 0), Delete(2, 5), Delete(1, 6)]
        assert _index(wide, actions).deletions_before(4, 5) == [2, 0]

    def test_server_deletions_between_exclusive(self, wide):
        actions = [Delete(1, 0), Delete(1, 1), Delete(1, 2), Delete(1, 3)]
        assert _index(wide, actions).server_deletions_between(0, 3, 1) == [1, 2]

    def test_standalone_detection(self, wide):
        # deletion fed by a transfer sourcing from its server: not standalone
        actions = [Transfer(2, 7, 1), Delete(1, 7)]
        assert not _index(wide, actions).is_standalone(0, 1)
        # creation at the server: not standalone either
        actions = [Transfer(1, 7, 2), Delete(1, 7)]
        assert not _index(wide, actions).is_standalone(0, 1)
        # unrelated actions: standalone
        actions = [Transfer(2, 8, 0), Delete(1, 7)]
        assert _index(wide, actions).is_standalone(0, 1)

    def test_blocking_transfer_found(self, wide):
        actions = [Transfer(2, 7, 1), Delete(1, 7)]
        assert _index(wide, actions).blocking_transfer(0, 1) == 0

    def test_blocking_transfer_absent(self, wide):
        actions = [Transfer(1, 7, 2), Delete(1, 7)]
        assert _index(wide, actions).blocking_transfer(0, 1) is None
