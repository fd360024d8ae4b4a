"""Property-based tests: the nearest-source scans vs. brute force.

:class:`~repro.model.state.SystemState` answers the paper's
``N(i,k,X)`` / ``N2(i,k,X)`` queries by scanning its live replicator
sets. Every answer must agree with
:func:`repro.model.nearest.nearest_bruteforce`, the ``(cost, index)``
minimum over the placement column, after *any* interleaving of
transfers, deletions and undos. The walk below checks every (server,
object) query at every step, which covers dummy degradation and
lowest-index tie-breaking (cost ties are common since link weights are
small ints).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.actions import Delete, Transfer
from repro.model.nearest import keep_benefit, nearest_bruteforce
from repro.model.state import SystemState
from tests.properties.test_schedule_properties import COMMON, instances


def _assert_matches_bruteforce(state: SystemState) -> None:
    inst = state.instance
    holds = state.placement()
    for obj in range(inst.num_objects):
        for server in range(inst.num_servers):
            ref = nearest_bruteforce(inst, holds, server, obj)
            assert state.nearest(server, obj) == ref, (server, obj, ref)
            assert state.nearest_cost(server, obj) == float(
                inst.costs[server, ref]
            )
            first, second = state.nearest_pair(server, obj)
            assert first == ref
            if ref == inst.dummy:
                assert second == inst.dummy
            else:
                assert second == nearest_bruteforce(
                    inst, holds, server, obj, exclude=(ref,)
                )
                # Explicit exclusion must agree with the oracle too.
                assert state.nearest(server, obj, exclude=(ref,)) == second


def _random_valid_action(state: SystemState, rng):
    inst = state.instance
    actions = []
    for i in range(inst.num_servers):
        for k in range(inst.num_objects):
            if state.holds(i, k):
                actions.append(Delete(i, k))
            else:
                transfer = Transfer(i, k, state.nearest(i, k))
                if state.is_valid(transfer):
                    actions.append(transfer)
    if not actions:
        return None
    return actions[int(rng.integers(len(actions)))]


@settings(**COMMON)
@given(inst=instances(), seed=st.integers(0, 2**31 - 1))
def test_index_matches_bruteforce_under_random_mutation(inst, seed):
    rng = np.random.default_rng(seed)
    state = SystemState(inst)
    _assert_matches_bruteforce(state)
    for _ in range(25):
        action = _random_valid_action(state, rng)
        if action is None:
            break
        state.apply(action)
        if rng.random() < 0.3:
            state.undo(action)
        _assert_matches_bruteforce(state)


def _eq4_reference(state: SystemState, server, obj, waiting) -> float:
    """Paper eq. 4 from first principles: each waiting target whose
    nearest source is ``server`` pays the gap to its second source."""
    inst = state.instance
    holds = state.placement()
    size = float(inst.sizes[obj])
    total = 0.0
    for t in waiting:
        first = nearest_bruteforce(inst, holds, t, obj)
        if first != server:
            continue
        second = nearest_bruteforce(inst, holds, t, obj, exclude=(first,))
        total += size * float(inst.costs[t, second] - inst.costs[t, first])
    return total


@settings(**COMMON)
@given(inst=instances(), seed=st.integers(0, 2**31 - 1))
def test_keep_benefit_matches_scalar_reference(inst, seed):
    """Eq. 4 benefits agree with the brute-force reference for random
    waiting sets."""
    rng = np.random.default_rng(seed)
    state = SystemState(inst)
    for obj in range(inst.num_objects):
        n = int(rng.integers(0, inst.num_servers + 1))
        waiting = [
            int(j) for j in rng.choice(inst.num_servers, size=n, replace=False)
        ]
        size = float(inst.sizes[obj])
        for server in range(inst.num_servers):
            got = keep_benefit(
                inst.costs, inst.dummy, state.holders(obj), server, waiting, size
            )
            ref = _eq4_reference(state, server, obj, waiting)
            assert got == ref, (server, obj, waiting, got, ref)
