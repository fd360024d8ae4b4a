"""Shared machinery for the schedule optimizers.

Every optimizer follows the same pattern: construct a candidate rewrite,
then *prove* it by replay before acceptance.

A crucial performance property makes the proof cheap: the replication
state trajectory depends only on each action's (server, object) effect —
never on transfer *sources*. All rewrites performed by H1/H2/OP1 permute
or inject actions inside a contiguous window and preserve the multiset of
per-cell effects, so the state at the window's end (and therefore the
validity of the untouched suffix) is unchanged. A candidate is valid iff
its *window* replays validly from the state at the window's start, which
turns an O(schedule) proof into an O(window) one.

:class:`ArrayState` is the slim replication state those replays run on.
A replay touches a few cells per action, so it keeps plain Python
storage, which indexes far faster per element than numpy does:

* placement: one flat ``bytearray`` where cell ``(i, k)`` sits at
  ``i * N + k``, so ``copy`` is a single memcpy and the holders of
  object ``k`` are ``cells[k::N]``;
* free space: a ``list`` of floats per server;
* instance data: a :class:`ReplayViews` with the object sizes as a list
  and cost rows converted to lists on first use.

``ArrayState(instance)`` builds the *origin* state (the placement
``X_old``) together with its views. Each optimizer builds it once per
``optimize()`` call and passes it down explicitly; every copy and
snapshot taken from it (:func:`capture_states`) shares those views. No
per-instance state is kept between calls, neither on the optimizer nor
on the :class:`~repro.model.instance.RtspInstance`, so an instance that
outlives its plan carries nothing extra.

Free space starts as ``capacities - X_old @ sizes`` computed by numpy,
then changes by one float addition or subtraction per action, and costs
are read as the same doubles the cost matrix holds. Python floats are
IEEE doubles, so every comparison, and so every schedule, comes out
exactly as a replay on numpy arrays would give it
(``tests/core/test_optimizer_digests.py`` pins this).
:func:`window_valid`, :func:`capture_states` and
:func:`window_replay_with_repairs` inline their replay loops on those
lists.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.model.actions import Action, Delete, Transfer
from repro.model.instance import RtspInstance
from repro.model.state import CAPACITY_EPS


class ReplayViews:
    """Plain-Python views of one instance, shared by the states of one
    ``optimize()`` call."""

    __slots__ = ("num_objects", "dummy", "sizes", "_costs", "_rows")

    def __init__(self, instance: RtspInstance) -> None:
        self.num_objects = instance.num_objects
        self.dummy = instance.dummy
        self.sizes: List[float] = instance.sizes.tolist()
        self._costs = instance.costs
        self._rows: List[Optional[List[float]]] = [None] * (self.dummy + 1)

    def row(self, target: int) -> List[float]:
        """Per-unit costs ``l[target, :]`` (dummy last), as a list."""
        row = self._rows[target]
        if row is None:
            row = self._rows[target] = self._costs[target].tolist()
        return row


class ArrayState:
    """Lightweight replication state for fast window replays.

    Mirrors the action semantics of :class:`repro.model.state.SystemState`
    but keeps only the placement cells and per-server free space (see the
    module docstring for the layout).
    """

    __slots__ = ("views", "cells", "free")

    def __init__(self, instance: RtspInstance) -> None:
        """The origin state (``X_old``) with fresh views of ``instance``."""
        placement = np.array(instance.x_old, dtype=np.int8)
        self.views = ReplayViews(instance)
        self.cells = bytearray(placement.tobytes())
        self.free: List[float] = (
            instance.capacities - placement.astype(np.float64) @ instance.sizes
        ).tolist()

    def copy(self) -> "ArrayState":
        """Independent copy sharing this state's views."""
        dup = object.__new__(ArrayState)
        dup.views = self.views
        dup.cells = self.cells[:]
        dup.free = self.free[:]
        return dup

    # ------------------------------------------------------------------
    def holds(self, server: int, obj: int) -> bool:
        """Whether ``server`` replicates ``obj`` (dummy holds everything)."""
        views = self.views
        if server == views.dummy:
            return True
        return bool(self.cells[server * views.num_objects + obj])

    def is_valid(self, action: Action) -> bool:
        """Whether ``action`` may be applied (same semantics as
        :meth:`repro.model.state.SystemState.is_valid`)."""
        dummy = self.views.dummy
        if isinstance(action, Transfer):
            i, k, j = action.target, action.obj, action.source
            return (
                i != dummy
                and i != j
                and self.holds(j, k)
                and not self.holds(i, k)
                and self.free[i] + CAPACITY_EPS >= self.views.sizes[k]
            )
        if isinstance(action, Delete):
            return action.server != dummy and self.holds(action.server, action.obj)
        return False

    def apply(self, action: Action) -> None:
        """Apply without validity checking (caller checked already)."""
        views = self.views
        k = action.obj
        if isinstance(action, Transfer):
            i = action.target
            self.cells[i * views.num_objects + k] = 1
            self.free[i] -= views.sizes[k]
        else:
            i = action.server
            self.cells[i * views.num_objects + k] = 0
            self.free[i] += views.sizes[k]

    def try_apply(self, action: Action) -> bool:
        """Apply if valid; returns whether it was applied."""
        if not self.is_valid(action):
            return False
        self.apply(action)
        return True

    def nearest(self, target: int, obj: int, exclude: int = -1) -> int:
        """Cheapest current source of ``obj`` for ``target`` (dummy fallback).

        Same contract as :meth:`repro.model.state.SystemState.nearest`:
        ``target`` and ``exclude`` are never candidates, ties break to the
        lowest server index, and a real holder beats an equal-cost dummy.
        """
        views = self.views
        return _nearest(
            self.cells, views.num_objects, views.dummy, views.row(target),
            target, obj, exclude,
        )


def _nearest(
    cells: bytearray,
    n: int,
    dummy: int,
    row: List[float],
    target: int,
    obj: int,
    exclude: int,
) -> int:
    """One ascending scan over the holders of ``obj``; ``row`` is the
    target's cost row. A holder replaces the best so far when strictly
    cheaper, or equally cheap with a lower index — which, the dummy being
    the highest index, also lets a holder beat an equal-cost dummy."""
    column = cells[obj::n]
    best, best_cost = dummy, row[dummy]
    j = column.find(1)
    while j >= 0:
        if j != target and j != exclude:
            c = row[j]
            if c < best_cost or (c == best_cost and j < best):
                best, best_cost = j, c
        j = column.find(1, j + 1)
    return best


def capture_states(
    origin: ArrayState,
    actions: Sequence[Action],
    positions: Iterable[int],
) -> Dict[int, ArrayState]:
    """Snapshot the state *before* each requested position, in one pass.

    ``origin`` is the state before position 0 (it is not modified).
    Assumes ``actions`` is a valid prefix-executable sequence (optimizer
    inputs always are).
    """
    views = origin.views
    n, sizes = views.num_objects, views.sizes
    state = origin.copy()
    cells, free = state.cells, state.free
    out: Dict[int, ArrayState] = {}
    cursor = 0
    for pos in sorted(set(positions)):
        while cursor < pos:
            a = actions[cursor]
            k = a.obj
            if isinstance(a, Transfer):
                i = a.target
                cells[i * n + k] = 1
                free[i] -= sizes[k]
            else:
                i = a.server
                cells[i * n + k] = 0
                free[i] += sizes[k]
            cursor += 1
        out[pos] = state.copy()
    return out


def window_valid(start_state: ArrayState, window: Sequence[Action]) -> bool:
    """Whether ``window`` replays validly from a copy of ``start_state``."""
    views = start_state.views
    n, dummy, sizes = views.num_objects, views.dummy, views.sizes
    cells = start_state.cells[:]
    free = start_state.free[:]
    for a in window:
        if isinstance(a, Transfer):
            i, k, j = a.target, a.obj, a.source
            if i == dummy or i == j:
                return False
            c = i * n + k
            if (
                cells[c]
                or (j != dummy and not cells[j * n + k])
                or free[i] + CAPACITY_EPS < sizes[k]
            ):
                return False
            cells[c] = 1
            free[i] -= sizes[k]
        elif isinstance(a, Delete):
            i, k = a.server, a.obj
            if i == dummy:
                return False
            c = i * n + k
            if not cells[c]:
                return False
            cells[c] = 0
            free[i] += sizes[k]
        else:
            return False
    return True


def window_replay_with_repairs(
    start_state: ArrayState,
    window: Sequence[Action],
    max_repairs: int = 64,
) -> Optional[List[Action]]:
    """Replay ``window``, re-pointing transfers whose source disappeared.

    Returns the (possibly repaired) window or ``None`` when unrepairable.
    Used by OP1 case (iii): hoisted deletions can strand transfers that
    sourced from the hoist's server; those are re-pointed to the nearest
    replicator at their position (possibly the dummy, at dummy price).
    A transfer whose target already holds the object, or lacks room, is
    unrepairable.
    """
    views = start_state.views
    n, dummy, sizes = views.num_objects, views.dummy, views.sizes
    cells = start_state.cells[:]
    free = start_state.free[:]
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
                action = action.with_source(
                    _nearest(cells, n, dummy, views.row(i), i, k, -1)
                )
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


def actions_cost(views: ReplayViews, actions: Iterable[Action]) -> float:
    """Implementation cost of an action sequence."""
    total = 0.0
    sizes = views.sizes
    for a in actions:
        if isinstance(a, Transfer):
            total += sizes[a.obj] * views.row(a.target)[a.source]
    return total


def count_dummies(instance: RtspInstance, actions: Iterable[Action]) -> int:
    """Number of dummy-sourced transfers in an action sequence."""
    dummy = instance.dummy
    return sum(
        1 for a in actions if isinstance(a, Transfer) and a.source == dummy
    )


# ----------------------------------------------------------------------
# schedule-structure queries shared by H1/H2
# ----------------------------------------------------------------------
def deletion_positions_before(
    actions: Sequence[Action], position: int, obj: int
) -> List[int]:
    """Positions ``< position`` holding a deletion of ``obj``, nearest first."""
    return [
        idx
        for idx in range(position - 1, -1, -1)
        if isinstance(actions[idx], Delete) and actions[idx].obj == obj
    ]


def server_deletions_between(
    actions: Sequence[Action], lo: int, hi: int, server: int
) -> List[int]:
    """Positions in ``(lo, hi)`` holding deletions at ``server``, in order."""
    return [
        idx
        for idx in range(lo + 1, hi)
        if isinstance(actions[idx], Delete) and actions[idx].server == server
    ]


def is_standalone_deletion(
    actions: Sequence[Action], window_start: int, del_pos: int
) -> bool:
    """Whether the deletion at ``del_pos`` can be hoisted to ``window_start``.

    Per paper H1 case (ii), a deletion ``D_ik'`` is *standalone* within the
    separating sub-schedule when no transfer between the hoist destination
    and the deletion either uses ``S_i`` as a source of ``O_k'`` (hoisting
    would destroy that source) or creates ``O_k'`` on ``S_i`` (the replica
    would not exist yet at the destination).
    """
    deletion = actions[del_pos]
    assert isinstance(deletion, Delete)
    for idx in range(window_start, del_pos):
        a = actions[idx]
        if isinstance(a, Transfer) and a.obj == deletion.obj:
            if a.source == deletion.server or a.target == deletion.server:
                return False
    return True


def blocking_transfer(
    actions: Sequence[Action], window_start: int, del_pos: int
) -> Optional[int]:
    """Last transfer in the window using the deletion's replica as source.

    This is the ``T_i''k'i`` of paper H1 case (iii): the transfer that
    re-homes the replica before it is deleted. Returns its position, or
    ``None`` when no such transfer exists.
    """
    deletion = actions[del_pos]
    assert isinstance(deletion, Delete)
    for idx in range(del_pos - 1, window_start - 1, -1):
        a = actions[idx]
        if (
            isinstance(a, Transfer)
            and a.obj == deletion.obj
            and a.source == deletion.server
        ):
            return idx
    return None
