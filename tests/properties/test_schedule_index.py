"""Property-based tests: ``ScheduleIndex`` against brute force.

H1 and H2 decide every candidate rewrite with
:meth:`~repro.core.optimizers.common.ScheduleIndex.rewrite_valid`, which
replays only the touched servers' free space and the touched objects'
cells. Its verdict must equal :func:`window_valid` on the materialised
window, replayed from the state before the window. The rewrites drawn
below have every shape the optimizers propose, at arbitrary positions,
so both verdicts occur:

* H1 case (i): a restored transfer moved before a position;
* H1 case (ii): deletions hoisted in front of it;
* H1 case (iii): a (transfer, deletion) pair hoisted, or the deletion
  hoisted and the transfer converted to a dummy transfer in place;
* H2: a staging transfer inserted at ``q`` and the dummy transfer
  replaced by a relay transfer and a deletion, with and without later
  deletions hoisted to make room;
* and arbitrary insertions, removals and replacements, which the
  exactness argument covers as well.

Every structure query, the splice and the per-position state are
checked against linear scans of the action list as well, and a last
test runs the real optimizers with every verdict cross-checked.
"""

from typing import List, Optional

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import get_builder, get_optimizer
from repro.core.optimizers import common
from repro.core.optimizers.common import ArrayState, ScheduleIndex, window_valid
from repro.model.actions import Action, Delete, Transfer
from repro.model.instance import RtspInstance
from repro.workloads.regular import paper_instance
from tests.properties.test_schedule_properties import COMMON, instances

BUILDERS = ["RDF", "GSDF", "AR", "GOLCF"]


@st.composite
def sized_instances(draw) -> RtspInstance:
    """The shared random instances, half of them with sizes in tenths,
    whose free-space sums round (0.1 + 0.2 != 0.3)."""
    inst = draw(instances())
    if draw(st.booleans()):
        return inst
    loads = np.maximum(inst.x_old @ inst.sizes, inst.x_new @ inst.sizes)
    sizes = inst.sizes / 10
    capacities = np.maximum(inst.x_old @ sizes, inst.x_new @ sizes) + (
        inst.capacities - loads
    ) / 10
    return RtspInstance.create(
        sizes, capacities, inst.costs, inst.x_old, inst.x_new
    )


def _schedule(inst, builder: str, seed: int) -> List[Action]:
    schedule = get_builder(builder).build(inst, rng=seed)
    if seed % 2:
        # H1's output has fewer dummies and longer same-object chains.
        schedule = get_optimizer("H1").optimize(inst, schedule)
    return schedule.actions()


def _state_before(inst, actions, pos) -> ArrayState:
    state = ArrayState(inst)
    for a in actions[:pos]:
        state.apply(a)
    return state


def _server(a: Action) -> int:
    return a.target if isinstance(a, Transfer) else a.server


# ----------------------------------------------------------------------
# brute-force references (linear scans of the list)
# ----------------------------------------------------------------------
def _deletions_before(actions, pos, obj):
    return [
        x
        for x in range(pos - 1, -1, -1)
        if isinstance(actions[x], Delete) and actions[x].obj == obj
    ]


def _server_deletions_between(actions, lo, hi, server):
    return [
        x
        for x in range(lo + 1, hi)
        if isinstance(actions[x], Delete) and actions[x].server == server
    ]


def _is_standalone(actions, window_start, del_pos):
    d = actions[del_pos]
    return not any(
        isinstance(a, Transfer)
        and a.obj == d.obj
        and d.server in (a.source, a.target)
        for a in actions[window_start:del_pos]
    )


def _blocking_transfer(actions, window_start, del_pos) -> Optional[int]:
    d = actions[del_pos]
    for x in range(del_pos - 1, window_start - 1, -1):
        a = actions[x]
        if isinstance(a, Transfer) and a.obj == d.obj and a.source == d.server:
            return x
    return None


def _assert_index_matches_list(index: ScheduleIndex, inst) -> None:
    fresh = ScheduleIndex(index.origin, index.actions)
    actions = index.actions
    assert index.by_obj == fresh.by_obj == [
        [x for x, a in enumerate(actions) if a.obj == k]
        for k in range(inst.num_objects)
    ]
    assert index.by_server == fresh.by_server == [
        [x for x, a in enumerate(actions) if _server(a) == s]
        for s in range(inst.num_servers)
    ]
    assert index.dummies == [
        x
        for x, a in enumerate(actions)
        if isinstance(a, Transfer) and a.source == inst.dummy
    ]


# ----------------------------------------------------------------------
# rewrite shapes
# ----------------------------------------------------------------------
@st.composite
def rewrites(draw, index: ScheduleIndex):
    """One rewrite ``(q, end, head, subst)`` of an H1 or H2 shape."""
    actions = index.actions
    dummy = index.origin.views.dummy
    transfers = [x for x, a in enumerate(actions) if isinstance(a, Transfer)]
    p = draw(st.sampled_from([x for x in transfers if x > 0] or [None]))
    assume(p is not None)
    t = actions[p]
    dels = _deletions_before(actions, p, t.obj)
    q = draw(
        st.sampled_from(dels) if dels and draw(st.booleans())
        else st.integers(0, p - 1)
    )
    # H1 sources from the deletion at q; H2 and wrong guesses elsewhere.
    if isinstance(actions[q], Delete) and draw(st.booleans()):
        source = actions[q].server
    else:
        source = draw(st.integers(0, dummy))
    restored = Transfer(t.target, t.obj, source)
    inner = list(range(q, p))
    shape = draw(
        st.sampled_from(
            ["move", "hoist", "pair", "convert", "stage", "space", "any"]
        )
    )
    if shape == "any":
        # Beyond H1/H2: arbitrary removals and replacements in [q, p],
        # so each touched action's own server and object count.
        fresh = st.builds(
            Transfer,
            st.integers(0, dummy - 1),
            st.integers(0, index.origin.views.num_objects - 1),
            st.integers(0, dummy),
        ) | st.builds(
            Delete,
            st.integers(0, dummy - 1),
            st.integers(0, index.origin.views.num_objects - 1),
        )
        keys = draw(st.sets(st.integers(q, p), max_size=3))
        subst = {x: tuple(draw(st.lists(fresh, max_size=1))) for x in keys}
        return q, p + 1, draw(st.lists(fresh, max_size=2)), subst
    if shape == "move" or (shape != "stage" and shape != "space" and len(inner) < 2):
        return q, p + 1, [restored], {p: ()}
    if shape == "hoist":
        own = _server_deletions_between(actions, q, p, t.target)
        pool = own if own and draw(st.booleans()) else inner[1:]
        chosen = sorted(draw(st.sets(st.sampled_from(pool), min_size=1, max_size=3)))
        subst = dict.fromkeys(chosen, ())
        subst[p] = ()
        return q, p + 1, [actions[x] for x in chosen] + [restored], subst
    if shape in ("pair", "convert"):
        r = draw(st.sampled_from(inner[1:]))
        b = draw(st.integers(q, r - 1))
        if shape == "pair" or not isinstance(actions[b], Transfer):
            return q, p + 1, [actions[b], actions[r], restored], {b: (), r: (), p: ()}
        converted = Transfer(actions[b].target, actions[b].obj, dummy)
        return q, p + 1, [actions[r], restored], {b: (converted,), r: (), p: ()}
    stage = draw(st.integers(0, dummy - 1))
    relay = (Transfer(t.target, t.obj, stage), Delete(stage, t.obj))
    head = [Transfer(stage, t.obj, source)]
    subst = {p: relay}
    end = p + 1
    if shape == "space":
        later = [x for x in range(q + 1, len(actions)) if x != p]
        assume(later)
        own = [
            x
            for x in later
            if isinstance(actions[x], Delete) and actions[x].server == stage
        ]
        pool = own if own and draw(st.booleans()) else later
        chosen = sorted(draw(st.sets(st.sampled_from(pool), min_size=1, max_size=3)))
        head = [actions[x] for x in chosen] + head
        subst.update(dict.fromkeys(chosen, ()))
        end = max(p, chosen[-1]) + 1
    return q, end, head, subst


@settings(**{**COMMON, "max_examples": 60})
@given(
    inst=sized_instances(),
    builder=st.sampled_from(BUILDERS),
    seed=st.integers(0, 2**31 - 1),
    data=st.data(),
)
def test_indexed_verdict_matches_window_replay(inst, builder, seed, data):
    actions = _schedule(inst, builder, seed)
    index = ScheduleIndex(ArrayState(inst), actions)
    for _ in range(12):
        q, end, head, subst = data.draw(rewrites(index))
        window = index.window(q, end, head, subst)
        # the materialised window is what the optimizers used to build
        assert window == list(head) + [
            b
            for x in range(q, end)
            for b in subst.get(x, (actions[x],))
        ]
        expected = window_valid(_state_before(inst, actions, q), window)
        assert index.rewrite_valid(q, end, head, subst) == expected
        if expected:
            spliced = index.splice(q, end, head, subst)
            assert spliced.actions == actions[:q] + window + actions[end:]
            _assert_index_matches_list(spliced, inst)
            assert index.actions == actions  # the parent is untouched
    _assert_index_matches_list(index, inst)


@settings(**COMMON)
@given(
    inst=sized_instances(),
    builder=st.sampled_from(BUILDERS),
    seed=st.integers(0, 2**31 - 1),
)
def test_queries_match_linear_scans(inst, builder, seed):
    actions = _schedule(inst, builder, seed)
    index = ScheduleIndex(ArrayState(inst), actions)
    _assert_index_matches_list(index, inst)
    n = len(actions)
    state = ArrayState(inst)
    for pos in range(n + 1):
        for s in range(inst.num_servers):
            assert index.free_at(s, pos) == state.free[s]
        for k in range(inst.num_objects):
            assert bytes(index.holders_at(k, pos)) == bytes(
                state.cells[k :: inst.num_objects]
            )
            assert index.deletions_before(pos, k) == _deletions_before(
                actions, pos, k
            )
        if pos < n:
            state.apply(actions[pos])
    for lo in range(-1, n):
        for hi in range(lo + 1, n + 1):
            for s in range(inst.num_servers):
                assert index.server_deletions_between(
                    lo, hi, s
                ) == _server_deletions_between(actions, lo, hi, s)
    for r, d in enumerate(actions):
        if not isinstance(d, Delete):
            continue
        for start in range(r + 1):
            assert index.is_standalone(start, r) == _is_standalone(actions, start, r)
            assert index.blocking_transfer(start, r) == _blocking_transfer(
                actions, start, r
            )
    for s in range(inst.num_servers):
        for k in range(inst.num_objects):
            assert index.deletes(s, k) == (Delete(s, k) in actions)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_optimizer_verdicts_match_window_replay(monkeypatch, seed):
    """Every verdict H1 and H2 take on a paper instance, cross-checked."""
    verdicts = []
    indexed = ScheduleIndex.rewrite_valid

    def checked(self, q, end, head, subst):
        verdict = indexed(self, q, end, head, subst)
        state = self.origin.copy()
        for a in self.actions[:q]:
            state.apply(a)
        assert verdict == window_valid(state, self.window(q, end, head, subst))
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(common.ScheduleIndex, "rewrite_valid", checked)
    inst = paper_instance(
        replicas=2 + seed % 2,
        num_servers=20,
        num_objects=60,
        uniform_size_range=(1000.0, 5000.0) if seed >= 2 else None,
        rng=seed,
    )
    schedule = get_builder("GOLCF").build(inst, rng=seed)
    for name in ("H1", "H2"):
        schedule = get_optimizer(name).optimize(inst, schedule)
    assert schedule.validate(inst).ok
    assert True in verdicts and False in verdicts

