"""Property-based tests: OP1's decisions from ``ScheduleIndex``.

OP1 decides each candidate with
:meth:`~repro.core.optimizers.common.ScheduleIndex.rewrite_repairs`,
which replays only the touched servers' free space and the touched
objects' cells and re-points stranded transfers (case iii). Its answer
must equal the whole-window reference replay,
``window_replay_with_repairs`` in ``tests/core/test_optimizer_common.py``:
the same ``None``, the same repaired actions and the same behaviour at
the repair cap. The rewrites drawn below have OP1's shape (a later
transfer of an object moved to an earlier one's position, deletions at
its target hoisted in front, the object's transfers in the window
re-pointed through the target) and are bent to force repairs: deletions
at other servers hoisted, sources drawn at random, small caps.

The second test runs OP1 on pinned inputs and, before every scan, runs
the plain restart scan (nothing skipped) on the same list: every
candidate the memoised scan decides gets the plain scan's verdict, every
candidate it skips is one the plain scan rejects, and both accept the
same rewrite.
"""

from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import get_builder
from repro.core.optimizers.common import ArrayState, ScheduleIndex
from repro.core.optimizers.op1 import OP1ReorderTransfers
from repro.model.actions import Action, Delete, Transfer
from tests.core.test_op1_digests import CASES, _instance
from tests.core.test_optimizer_common import window_replay_with_repairs
from tests.properties.test_schedule_index import (
    BUILDERS,
    _schedule,
    _state_before,
    sized_instances,
)
from tests.properties.test_schedule_properties import COMMON

Rewrite = Tuple[int, int, List[Action], Dict[int, Tuple[Action, ...]]]


def _next_transfer(actions, obj, pos) -> Optional[int]:
    for x in range(pos + 1, len(actions)):
        if isinstance(actions[x], Transfer) and actions[x].obj == obj:
            return x
    return None


@st.composite
def op1_rewrites(draw, index: ScheduleIndex) -> Rewrite:
    """One rewrite ``(q, end, head, subst)`` of OP1's shape."""
    actions = index.actions
    views = index.origin.views
    dummy = views.dummy
    pairs = [
        (p1, p2)
        for p1, a in enumerate(actions)
        if isinstance(a, Transfer)
        for p2 in [_next_transfer(actions, a.obj, p1)]
        if p2 is not None
    ]
    assume(pairs)
    p1, p2 = draw(st.sampled_from(pairs))
    if draw(st.booleans()):
        # beyond OP1: any later transfer of the object
        later = [
            x for x in index.by_obj[actions[p1].obj]
            if x > p1 and isinstance(actions[x], Transfer)
        ]
        p2 = draw(st.sampled_from(later))
    moved = actions[p2]
    i, k = moved.target, moved.obj
    if draw(st.booleans()):
        source = index.nearest_at(i, k, p1)  # OP1's choice
    else:
        source = draw(st.integers(0, dummy))  # may need a repair itself
    inner = [x for x in range(p1 + 1, p2)]
    own = index.server_deletions_between(p1, p2, i)
    hoist = draw(st.sampled_from(["none", "own", "any"]))
    if hoist == "own" and own:
        hoisted = own
    elif hoist == "any" and inner:
        # deletions anywhere in the window strand the transfers they fed
        dels = [x for x in inner if isinstance(actions[x], Delete)]
        pool = dels if dels and draw(st.booleans()) else inner
        hoisted = sorted(draw(st.sets(st.sampled_from(pool), min_size=1, max_size=3)))
    else:
        hoisted = []
    head = [actions[x] for x in hoisted] + [Transfer(i, k, source)]
    subst: Dict[int, Tuple[Action, ...]] = dict.fromkeys(hoisted, ())
    subst[p2] = ()
    for x in range(p1, p2):
        a = actions[x]
        if x in subst or not isinstance(a, Transfer) or a.target == i:
            continue
        if a.obj == k and draw(st.booleans()):
            subst[x] = (a.with_source(i),)
        elif draw(st.integers(0, 9)) == 0:
            subst[x] = (a.with_source(draw(st.integers(0, dummy))),)
    return p1, p2 + 1, head, subst


@settings(**{**COMMON, "max_examples": 60})
@given(
    inst=sized_instances(),
    builder=st.sampled_from(BUILDERS),
    seed=st.integers(0, 2**31 - 1),
    data=st.data(),
)
def test_rewrite_repairs_match_window_replay(inst, builder, seed, data):
    actions = _schedule(inst, builder, seed)
    index = ScheduleIndex(ArrayState(inst), actions)
    for _ in range(12):
        q, end, head, subst = data.draw(op1_rewrites(index))
        cap = data.draw(st.sampled_from([0, 1, 2, 64]))
        window = index.window(q, end, head, subst)
        expected = window_replay_with_repairs(
            _state_before(inst, actions, q), window, cap
        )
        repairs = index.rewrite_repairs(q, end, head, subst, cap)
        if expected is None:
            assert repairs is None
            continue
        assert repairs is not None
        assert len(repairs) <= cap
        repaired = list(window)
        for offset, source in repairs.items():
            assert repaired[offset].source != source
            repaired[offset] = repaired[offset].with_source(source)
        assert repaired == expected
        assert index.rewrite_valid(q, end, head, subst) == (not repairs)


# ----------------------------------------------------------------------
# memoised against plain restart scans
# ----------------------------------------------------------------------
#: Pinned cases where accepted rewrites re-point other objects' transfers
#: (AR and GSDF), and one RDF case where none does.
SCAN_CASES = (
    "15x60-r2-uniform-GSDF",
    "15x60-r3-const-AR",
    "15x60-r4-uniform-GSDF",
    "15x60-r4-const-RDF",
    "20x100-r2-const-AR",
)


@pytest.mark.parametrize("case", SCAN_CASES)
def test_memoised_scan_matches_plain_restart_scan(monkeypatch, case):
    m, n, r, uniform, builder = CASES[case]
    inst = _instance(m, n, r, uniform)
    base = get_builder(builder).build(inst, rng=r)
    op1 = OP1ReorderTransfers()
    consider, scan = OP1ReorderTransfers._consider, OP1ReorderTransfers._scan
    verdicts: Dict[Tuple[int, int], Optional[tuple]] = {}

    def recorded(self, index, p1, p2):
        result = consider(self, index, p1, p2)
        verdicts[p1, p2] = result
        return result

    def checked(self, index, settled, touched):
        verdicts.clear()
        plain_result = scan(self, index, 0, frozenset())
        plain = dict(verdicts)
        verdicts.clear()
        result = scan(self, index, settled, touched)
        for candidate, verdict in plain.items():
            if candidate in verdicts:
                assert verdicts[candidate] == verdict, candidate
            else:
                assert verdict is None, candidate  # skipped: a rejection
        assert set(verdicts) <= set(plain)
        if result is None:
            assert plain_result is None
        else:
            assert plain_result is not None
            assert result[0].actions == plain_result[0].actions
            assert result[1:] == plain_result[1:]
            history.append(result[2])
        return result

    history: List[frozenset] = []
    monkeypatch.setattr(OP1ReorderTransfers, "_consider", recorded)
    monkeypatch.setattr(OP1ReorderTransfers, "_scan", checked)
    out = op1.optimize(inst, base)
    assert out.validate(inst).ok
    assert history, "OP1 accepted nothing on this case"
    if builder != "RDF":
        # some accepted rewrite re-pointed another object's transfer
        assert any(len(touched) > 1 for touched in history)
