"""Property-based tests: the heap-backed ``PendingTransferSelector``
against a whole-array first-minimum reference.

The selector keeps one heap entry per pending object, keyed ``(cost,
flat position)``, and rescans only the objects the builder marks dirty.
The reference below recomputes every pending transfer's cost from the
current state at every query, lays the costs out in the flat order
(objects in work-list order, each object's targets in list order) and
takes ``np.argmin``'s first minimum. The two must agree on every query
along GOLCF-shaped (``pop_object``) and GMC-shaped (``pop_target``)
sequences, with deliveries, evictions and unrelated replica churn in
between. Link weights are small ints and sizes are drawn from 1-4, so
cost ties across objects and within one object are common.
"""

from typing import Dict, List, Set, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builders.common import PendingTransferSelector
from repro.model.instance import RtspInstance
from repro.model.state import SystemState
from tests.properties.test_schedule_properties import COMMON, instances


class WholeArraySelector:
    """Reference: a first-minimum ``np.argmin`` over every pending
    transfer's cost, recomputed from scratch at each query."""

    def __init__(self, state: SystemState, targets: Dict[int, List[int]]) -> None:
        self.state = state
        self.pend = {k: list(v) for k, v in targets.items()}

    def best(self) -> Tuple[int, int, int]:
        inst = self.state.instance
        entries = [
            (k, pos, t) for k, pend in self.pend.items() for pos, t in enumerate(pend)
        ]
        costs = np.array(
            [
                inst.sizes[k]
                * min(
                    [inst.costs[t, inst.dummy]]
                    + [inst.costs[t, j] for j in self.state.holders(k)]
                )
                for k, _, t in entries
            ]
        )
        return entries[int(np.argmin(costs))]

    def pop_object(self, obj: int) -> None:
        del self.pend[obj]

    def pop_target(self, obj: int, pos: int) -> None:
        self.pend[obj].pop(pos)
        if not self.pend[obj]:
            del self.pend[obj]

    @property
    def exhausted(self) -> bool:
        return not self.pend


def _churn(data, state: SystemState, pending: Set[Tuple[int, int]], sel) -> None:
    """A few replica changes outside the pending cells: evictions and
    extra copies of any object, each reported through ``mark_dirty``."""
    inst = state.instance
    for _ in range(data.draw(st.integers(0, 2))):
        i = data.draw(st.integers(0, inst.num_servers - 1))
        k = data.draw(st.integers(0, inst.num_objects - 1))
        if (i, k) in pending:
            continue
        if state.holds(i, k):
            state.apply_delete_trusted(i, k)
        else:
            state.apply_transfer_trusted(i, k)
        sel.mark_dirty(k)


def _run(inst: RtspInstance, data, shape: str) -> int:
    state = SystemState(inst)
    rows, cols = np.nonzero(inst.outstanding())
    pairs = data.draw(st.permutations(list(zip(rows.tolist(), cols.tolist()))))
    targets: Dict[int, List[int]] = {}
    for i, k in pairs:
        targets.setdefault(k, []).append(i)
    pending = set(pairs)
    sel = PendingTransferSelector(state, targets)
    ref = WholeArraySelector(state, targets)
    queries = 0
    while not ref.exhausted:
        assert not sel.exhausted
        got = sel.best()
        assert got == ref.best()
        queries += 1
        obj, pos, target = got
        if shape == "object":
            served = list(ref.pend[obj])
            sel.pop_object(obj)
            ref.pop_object(obj)
        else:
            served = [target]
            sel.pop_target(obj, pos)
            ref.pop_target(obj, pos)
        for t in served:
            pending.discard((t, obj))
            _churn(data, state, pending, sel)
            state.apply_transfer_trusted(t, obj)
            sel.mark_dirty(obj)
    assert sel.exhausted
    return queries


@given(inst=instances(), data=st.data())
@settings(**COMMON)
def test_object_sequences_match_whole_array_argmin(inst, data):
    assert _run(inst, data, "object") == int(inst.outstanding().any(axis=0).sum())


@given(inst=instances(), data=st.data())
@settings(**COMMON)
def test_target_sequences_match_whole_array_argmin(inst, data):
    assert _run(inst, data, "target") == int(inst.outstanding().sum())


@pytest.mark.parametrize("shape", ["object", "target"])
def test_all_ties_follow_flat_order(shape):
    # Every link costs the same and every size is 1: each pending
    # transfer ties with every other, across and within objects, so the
    # selector must walk the flat order.
    m, n = 4, 3
    costs = np.ones((m, m)) - np.eye(m)
    x_old = np.zeros((m, n), dtype=np.int8)
    x_old[0] = 1
    x_new = np.ones((m, n), dtype=np.int8)
    inst = RtspInstance.create(np.ones(n), np.full(m, 3.0), costs, x_old, x_new)
    targets = {2: [3, 1], 0: [2, 3, 1], 1: [1, 2, 3]}
    state = SystemState(inst)
    sel = PendingTransferSelector(state, targets)
    order = []
    while not sel.exhausted:
        obj, pos, target = sel.best()
        order.append((obj, target))
        if shape == "object":
            sel.pop_object(obj)
        else:
            assert pos == 0
            sel.pop_target(obj, pos)
            sel.mark_dirty(obj)
    if shape == "object":
        assert order == [(2, 3), (0, 2), (1, 1)]
    else:
        assert order == [(k, t) for k, pend in targets.items() for t in pend]


def test_cheaper_later_entry_wins_and_stale_entries_are_skipped():
    m, n = 4, 2
    costs = np.array(
        [[0, 5, 5, 5], [5, 0, 2, 9], [5, 2, 0, 9], [5, 9, 9, 0]], dtype=float
    )
    x_old = np.zeros((m, n), dtype=np.int8)
    x_old[0] = 1
    x_new = np.zeros((m, n), dtype=np.int8)
    x_new[1:, 0] = 1
    x_new[3, 1] = 1
    inst = RtspInstance.create(np.ones(n), np.full(m, 2.0), costs, x_old, x_new)
    state = SystemState(inst)
    sel = PendingTransferSelector(state, {0: [3, 1, 2], 1: [3]})
    ref = WholeArraySelector(state, {0: [3, 1, 2], 1: [3]})
    # Every target pays 5 from S_0: the first entry (object 0, S_3) wins.
    assert sel.best() == ref.best() == (0, 0, 3)
    # A copy at S_1 makes S_2 cheaper (2) than anything else.
    state.apply_transfer_trusted(1, 0)
    sel.mark_dirty(0)
    sel.pop_target(0, 1)
    ref.pop_target(0, 1)
    assert sel.best() == ref.best() == (0, 1, 2)
    # Dropping that copy again leaves a stale cost-2 entry on the heap.
    state.apply_delete_trusted(1, 0)
    sel.mark_dirty(0)
    assert sel.best() == ref.best() == (0, 0, 3)
