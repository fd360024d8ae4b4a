"""Property-based tests: ``SystemState``'s buffers stay coherent.

The state keeps its placement cells in a ``bytearray`` with a numpy view
over it, its free space in an ``array('d')`` with numpy views over it,
and its exact ledger in Python ints (or compensated Python floats for
fractional sizes). After any sequence of ``apply``, ``undo`` and
``crash_server`` calls, every view and every query must agree with a
state that replays the same effective actions from scratch — including
a ``free_array()`` view taken before the sequence — and a ``copy`` must
share no mutable buffer with its original.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.actions import Delete, Transfer
from repro.model.instance import RtspInstance
from repro.model.state import SystemState
from tests.properties.test_schedule_properties import COMMON, instances


def _fractional(inst: RtspInstance) -> RtspInstance:
    """The same instance with sizes and slack in tenths (0.1 + 0.2 !=
    0.3), which switches the state to its compensated float ledger."""
    loads = np.maximum(inst.x_old @ inst.sizes, inst.x_new @ inst.sizes)
    sizes = inst.sizes / 10
    caps = np.maximum(inst.x_old @ sizes, inst.x_new @ sizes) + (
        inst.capacities - loads
    ) / 10
    return RtspInstance.create(sizes, caps, inst.costs, inst.x_old, inst.x_new)


def _valid_actions(state: SystemState):
    inst = state.instance
    actions = []
    for i in range(inst.num_servers):
        for k in range(inst.num_objects):
            if state.holds(i, k):
                actions.append(Delete(i, k))
            else:
                actions.extend(
                    Transfer(i, k, j)
                    for j in range(inst.num_servers + 1)
                    if j != i and state.is_valid(Transfer(i, k, j))
                )
    return actions


def _assert_same(state: SystemState, ref: SystemState) -> None:
    inst = state.instance
    assert state.placement().dtype == np.int8
    assert np.array_equal(state.placement(), ref.placement())
    assert state.matches(ref.placement())
    assert np.array_equal(state.free_array(), ref.free_array())
    for i in range(inst.num_servers + 1):
        assert state.free_space(i) == ref.free_space(i)
        for k in range(inst.num_objects):
            assert state.holds(i, k) == ref.holds(i, k)
            assert state.nearest(i, k) == ref.nearest(i, k)
            assert state.nearest_pair(i, k) == ref.nearest_pair(i, k)
    for k in range(inst.num_objects):
        assert state.holders(k) == ref.holders(k)


def _assert_disjoint(a: SystemState, b: SystemState) -> None:
    assert not np.shares_memory(a._holds, b._holds)
    assert not np.shares_memory(a.free_array(), b.free_array())
    assert a._cells is not b._cells and a._free_buf is not b._free_buf
    for name in ("_free_int", "_free_comp", "_free_raw", "_replicators", "versions"):
        mine, theirs = getattr(a, name), getattr(b, name)
        assert mine is None or mine is not theirs


@given(inst=instances(), fractional=st.booleans(), data=st.data())
@settings(**COMMON)
def test_buffers_agree_with_a_replay_from_scratch(inst, fractional, data):
    if fractional:
        inst = _fractional(inst)
    state = SystemState(inst)
    assert (state._free_int is None) == fractional
    view = state.free_array()
    effective = []  # what a replay from X_old applies, in order
    for _ in range(data.draw(st.integers(0, 25))):
        op = data.draw(st.sampled_from(["apply", "undo", "crash", "copy"]))
        if op == "apply":
            actions = _valid_actions(state)
            if actions:
                action = data.draw(st.sampled_from(actions))
                state.apply(action)
                effective.append(action)
        elif op == "undo" and effective:
            last = effective[-1]
            state.undo(last)
            # An undo's cell and ledger steps are the inverse action's.
            effective.append(
                Delete(last.target, last.obj)
                if isinstance(last, Transfer)
                else Transfer(last.server, last.obj, inst.dummy)
            )
        elif op == "crash":
            server = data.draw(st.integers(0, inst.num_servers - 1))
            effective.extend(state.crash_server(server))
        elif op == "copy":
            before = (state.placement(), state.free_array().copy(), list(state.versions))
            dup = state.copy()
            _assert_disjoint(state, dup)
            _assert_same(dup, state)
            # Mutating the copy leaves the original untouched.
            for i in range(inst.num_servers):
                dup.crash_server(i)
            assert np.array_equal(state.placement(), before[0])
            assert np.array_equal(state.free_array(), before[1])
            assert np.array_equal(view, before[1])
            assert state.versions == before[2]
    ref = SystemState(inst)
    for action in effective:
        ref.apply(action)
    _assert_same(state, ref)
    # And both agree with the placement itself.
    x = state.placement()
    used = inst.capacities - x @ inst.sizes
    if fractional:
        np.testing.assert_allclose(view, used, rtol=0, atol=1e-9)
    else:
        assert np.array_equal(view, used)
    for k in range(inst.num_objects):
        assert state.holders(k) == set(np.flatnonzero(x[:, k]).tolist())
    assert np.array_equal(view, ref.free_array())
    assert state.versions == ref.versions
