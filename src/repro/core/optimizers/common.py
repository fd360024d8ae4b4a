"""Shared machinery for the schedule optimizers.

Every optimizer follows the same pattern: construct a candidate rewrite,
then *prove* it valid before acceptance.

The proof is cheap because validity is local. An action reads only the
cells ``(target, obj)`` and ``(source, obj)`` and ``free[target]``; a
cell changes only through actions on that cell, and ``free[s]`` only
through actions at ``s`` (transfers into it, deletions at it). Let S
and O be the servers and objects of every action a rewrite inserts,
removes or moves, and add to O the object of every transfer it
re-sources in place (that changes no free space, so it adds nothing to
S). Any other action of the valid input sees
the same subsequence of actions on its object and at its target as
before, so it reads the same values and keeps its verdict. A rewrite is
therefore decided by replaying, in rewritten order, the free-space
trajectory of each server in S (checking the transfers into it) and the
cell trajectory of each object in O (checking those actions' cell
conditions), starting from their values at the window's start.

:class:`ScheduleIndex`, built in one pass over the list, keeps the
sorted positions of each object's actions, of each server's
free-space-changing actions and of the dummy transfers, so both replays
and their starting values visit only those positions. ``free_at(s, q)``
replays ``s``'s own actions from position 0: the same float operations
in the same order as a full replay. Every verdict, and so every
schedule, is therefore bit-identical to deciding with
:func:`window_valid` on the state at the window's start
(``tests/core/test_optimizer_digests.py`` and
``tests/core/test_op1_digests.py`` pin the schedules,
``tests/properties/test_schedule_index.py`` and
``tests/properties/test_op1_index.py`` the verdicts). Every optimizer
decides its candidates from the index and splices only accepted
rewrites: H1 and H2 with :meth:`ScheduleIndex.rewrite_valid`, OP1 with
:meth:`ScheduleIndex.rewrite_repairs`, the same replay allowed to
re-point transfers whose source is gone (OP1's case iii). A repair
changes a source only, never a cell or a free-space value, so the
argument above still holds; the new source is the nearest holder in
the object's replayed column.

:class:`ArrayState` is the slim replication state that now serves only
NSR's single replay and the tests (:func:`window_valid`, the reference
check, runs on it). A replay touches a few cells per action, so it
keeps plain Python storage, which indexes far faster per element than
numpy does:

* placement: one flat ``bytearray`` where cell ``(i, k)`` sits at
  ``i * N + k``, so ``copy`` is a single memcpy and the holders of
  object ``k`` are ``cells[k::N]``;
* free space: a ``list`` of floats per server;
* instance data: a :class:`ReplayViews` with the object sizes as a list
  and cost rows converted to lists on first use.

``ArrayState(instance)`` builds the *origin* state (the placement
``X_old``) together with its views. Each optimizer builds it once per
``optimize()`` call and passes it down explicitly, to its index and to
every copy it takes. No per-instance state is kept between calls,
neither on the optimizer nor on the
:class:`~repro.model.instance.RtspInstance`, so an instance that
outlives its plan carries nothing extra.

Free space starts as ``capacities - X_old @ sizes`` computed by numpy,
then changes by one float addition or subtraction per action, and costs
are read as the same doubles the cost matrix holds. Python floats are
IEEE doubles, so every comparison comes out exactly as a replay on
numpy arrays would give it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import reduce
from operator import add
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.model.actions import Action, Delete, Transfer
from repro.model.instance import RtspInstance
from repro.model.schedule import Schedule
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
            self.cells[obj :: views.num_objects], views.dummy,
            views.row(target), target, exclude,
        )


def _nearest(
    column: bytearray, dummy: int, row: List[float], target: int, exclude: int
) -> int:
    """One ascending scan over the holders in ``column`` (entry ``i`` is 1
    when real server ``i`` holds the object); ``row`` is the target's
    cost row. A holder replaces the best so far when strictly cheaper,
    or equally cheap with a lower index — which, the dummy being the
    highest index, also lets a holder beat an equal-cost dummy."""
    best, best_cost = dummy, row[dummy]
    j = column.find(1)
    while j >= 0:
        if j != target and j != exclude:
            c = row[j]
            if c < best_cost or (c == best_cost and j < best):
                best, best_cost = j, c
        j = column.find(1, j + 1)
    return best


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


def action_costs(views: ReplayViews, actions: Iterable[Action]) -> List[float]:
    """Each action's cost; a deletion's is ``0.0``, which leaves any sum
    of them as it was."""
    sizes, row = views.sizes, views.row
    return [
        sizes[a.obj] * row(a.target)[a.source] if isinstance(a, Transfer) else 0.0
        for a in actions
    ]


def actions_cost(views: ReplayViews, actions: Iterable[Action]) -> float:
    """Implementation cost of an action sequence, summed in order."""
    return reduce(add, action_costs(views, actions), 0.0)


#: A rewrite's substitutions: position -> the actions that replace it
#: (an empty tuple removes the action). See :class:`ScheduleIndex`.
Substitutions = Mapping[int, Sequence[Action]]


class ScheduleIndex:
    """One action list indexed by object and by server.

    Built in one pass, it holds the sorted positions of each object's
    actions (``by_obj``), of the actions that change each real server's
    free space (``by_server``: transfers into it, deletions at it) and of
    the dummy transfers (``dummies``). ``origin`` is the state before
    position 0 and is never modified. The list must be valid from
    ``origin``, which every optimizer input and output is.

    A *rewrite* ``(q, end, head, subst)`` replaces the window
    ``actions[q:end]`` with ``head`` followed by the window's actions in
    order, where each position ``x`` in ``subst`` (all inside the
    window) stands for the actions ``subst[x]`` instead of
    ``actions[x]``. :meth:`rewrite_valid` decides it from the index (see
    the module docstring); :meth:`window` materialises it and
    :meth:`splice` applies it.
    """

    __slots__ = ("origin", "actions", "by_obj", "by_server", "dummies")

    def __init__(self, origin: ArrayState, actions: List[Action]) -> None:
        views = origin.views
        dummy = views.dummy
        by_obj: List[List[int]] = [[] for _ in range(views.num_objects)]
        by_server: List[List[int]] = [[] for _ in range(dummy)]
        dummies: List[int] = []
        for pos, a in enumerate(actions):
            by_obj[a.obj].append(pos)
            if isinstance(a, Transfer):
                by_server[a.target].append(pos)
                if a.source == dummy:
                    dummies.append(pos)
            else:
                by_server[a.server].append(pos)
        self.origin = origin
        self.actions = actions
        self.by_obj = by_obj
        self.by_server = by_server
        self.dummies = dummies

    # ------------------------------------------------------------------
    # state at a position
    # ------------------------------------------------------------------
    def free_at(self, server: int, pos: int) -> float:
        """Free space of ``server`` before position ``pos``.

        Replays the server's own actions in order, so the value is the
        one a full replay reaches, bit for bit.
        """
        actions, sizes = self.actions, self.origin.views.sizes
        free = self.origin.free[server]
        for x in self.by_server[server]:
            if x >= pos:
                break
            a = actions[x]
            if isinstance(a, Transfer):
                free -= sizes[a.obj]
            else:
                free += sizes[a.obj]
        return free

    def holders_at(self, obj: int, pos: int) -> bytearray:
        """Column of ``obj`` before position ``pos``: entry ``i`` is 1
        when real server ``i`` holds it."""
        origin = self.origin
        column = origin.cells[obj :: origin.views.num_objects]
        actions = self.actions
        for x in self.by_obj[obj]:
            if x >= pos:
                break
            a = actions[x]
            if isinstance(a, Transfer):
                column[a.target] = 1
            else:
                column[a.server] = 0
        return column

    def nearest_at(self, target: int, obj: int, pos: int) -> int:
        """Cheapest source of ``obj`` for ``target`` before position
        ``pos``, as :meth:`ArrayState.nearest` picks it."""
        views = self.origin.views
        return _nearest(
            self.holders_at(obj, pos), views.dummy, views.row(target), target, -1
        )

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    def deletions_before(self, pos: int, obj: int) -> List[int]:
        """Positions ``< pos`` holding a deletion of ``obj``, nearest first."""
        actions, positions = self.actions, self.by_obj[obj]
        return [
            x
            for x in reversed(positions[: bisect_left(positions, pos)])
            if isinstance(actions[x], Delete)
        ]

    def server_deletions_between(
        self, lo: int, hi: int, server: int
    ) -> List[int]:
        """Positions in ``(lo, hi)`` holding deletions at ``server``, in order."""
        actions, positions = self.actions, self.by_server[server]
        lo, hi = bisect_right(positions, lo), bisect_left(positions, hi)
        return [x for x in positions[lo:hi] if isinstance(actions[x], Delete)]

    def _object_transfers_between(
        self, lo: int, hi: int, deletion: Delete
    ) -> List[int]:
        """Transfers of the deletion's object in ``[lo, hi)``, in order."""
        actions, positions = self.actions, self.by_obj[deletion.obj]
        lo, hi = bisect_left(positions, lo), bisect_left(positions, hi)
        return [x for x in positions[lo:hi] if isinstance(actions[x], Transfer)]

    def is_standalone(self, window_start: int, del_pos: int) -> bool:
        """Whether the deletion at ``del_pos`` can be hoisted to
        ``window_start``.

        Per paper H1 case (ii), a deletion ``D_ik'`` is *standalone* within
        the separating sub-schedule when no transfer between the hoist
        destination and the deletion either uses ``S_i`` as a source of
        ``O_k'`` (hoisting would destroy that source) or creates ``O_k'``
        on ``S_i`` (the replica would not exist yet at the destination).
        """
        deletion = self.actions[del_pos]
        i = deletion.server
        for x in self._object_transfers_between(window_start, del_pos, deletion):
            a = self.actions[x]
            if a.source == i or a.target == i:
                return False
        return True

    def blocking_transfer(
        self, window_start: int, del_pos: int
    ) -> Optional[int]:
        """Last transfer in ``[window_start, del_pos)`` sourcing from the
        deletion's replica.

        This is the ``T_i''k'i`` of paper H1 case (iii): the transfer that
        re-homes the replica before it is deleted. Returns its position,
        or ``None`` when no such transfer exists.
        """
        deletion = self.actions[del_pos]
        for x in reversed(
            self._object_transfers_between(window_start, del_pos, deletion)
        ):
            if self.actions[x].source == deletion.server:
                return x
        return None

    def deletes(self, server: int, obj: int) -> bool:
        """Whether the list deletes ``obj`` at ``server`` anywhere."""
        actions = self.actions
        for x in self.by_obj[obj]:
            a = actions[x]
            if isinstance(a, Delete) and a.server == server:
                return True
        return False

    # ------------------------------------------------------------------
    # rewrites
    # ------------------------------------------------------------------
    def window(
        self, q: int, end: int, head: Sequence[Action], subst: Substitutions
    ) -> List[Action]:
        """The rewritten window, materialised."""
        actions = self.actions
        out = list(head)
        cursor = q
        for x in sorted(subst):
            out.extend(actions[cursor:x])
            out.extend(subst[x])
            cursor = x + 1
        out.extend(actions[cursor:end])
        return out

    def splice(
        self, q: int, end: int, head: Sequence[Action], subst: Substitutions
    ) -> "ScheduleIndex":
        """The index of the whole list with the rewrite applied."""
        actions = self.actions
        return ScheduleIndex(
            self.origin,
            actions[:q] + self.window(q, end, head, subst) + actions[end:],
        )

    def rewrite_valid(
        self, q: int, end: int, head: Sequence[Action], subst: Substitutions
    ) -> bool:
        """Whether the rewrite replays validly from the state at ``q``.

        Equal to :func:`window_valid` on the state before ``q`` and
        :meth:`window`: the replay of :meth:`rewrite_repairs` with no
        repair allowed.
        """
        return self.rewrite_repairs(q, end, head, subst, 0) is not None

    def rewrite_repairs(
        self,
        q: int,
        end: int,
        head: Sequence[Action],
        subst: Substitutions,
        max_repairs: int,
    ) -> Optional[Dict[int, int]]:
        """Replay the rewrite from the state at ``q``, re-pointing the
        transfers whose source does not hold their object (OP1 case iii).

        Returns ``None`` when the window is invalid or needs more than
        ``max_repairs`` re-pointings. Otherwise returns the repairs as
        ``{offset in the materialised window: new source}``, where the
        new source is the nearest holder at that point (the tie rule of
        :meth:`ArrayState.nearest`, the dummy as fallback). A transfer
        whose target already holds the object, or lacks room, is not
        repairable.

        Only the touched servers' free space and the touched objects'
        cells are replayed (see the module docstring). A repair changes
        a source only, never a cell or a free-space value, so it leaves
        every other check as it was. A substitution that only re-sources
        a transfer touches its object but no server.
        """
        actions = self.actions
        servers, objs = set(), set()
        for a in head:
            servers.add(a.target if isinstance(a, Transfer) else a.server)
            objs.add(a.obj)
        for x, repl in subst.items():
            old = actions[x]
            objs.add(old.obj)
            if (
                len(repl) == 1
                and isinstance(old, Transfer)
                and isinstance(repl[0], Transfer)
                and (repl[0].target, repl[0].obj) == (old.target, old.obj)
            ):
                continue  # re-sourced: same cell, same free-space change
            servers.add(old.target if isinstance(old, Transfer) else old.server)
            for a in repl:
                servers.add(a.target if isinstance(a, Transfer) else a.server)
                objs.add(a.obj)
        # A removed position adds no action to any replay, so only the
        # positions with replacements join the replayed positions.
        inserts = sorted(x for x, repl in subst.items() if repl)
        views = self.origin.views
        dummy, sizes = views.dummy, views.sizes

        for s in servers:
            if s == dummy:
                continue  # rejected by its object's replay below
            free = self.free_at(s, q)
            window = _window_positions(self.by_server[s], q, end, inserts)
            for a in self._rewritten(window, head, subst):
                if isinstance(a, Transfer):
                    if a.target == s:
                        size = sizes[a.obj]
                        if free + CAPACITY_EPS < size:
                            return None
                        free -= size
                elif a.server == s:
                    free += sizes[a.obj]

        repairs: Dict[int, int] = {}
        for k in objs:
            column = self.holders_at(k, q)
            window = _window_positions(self.by_obj[k], q, end, inserts)
            for n, a in enumerate(self._rewritten(window, head, subst)):
                if a.obj != k:
                    continue
                if isinstance(a, Transfer):
                    i, j = a.target, a.source
                    if i == dummy or column[i]:
                        return None
                    if i == j or (j != dummy and not column[j]):
                        if len(repairs) >= max_repairs:
                            return None
                        offset = _offset(window, q, head, subst, n)
                        repairs[offset] = _nearest(column, dummy, views.row(i), i, -1)
                    column[i] = 1
                else:
                    i = a.server
                    if i == dummy or not column[i]:
                        return None
                    column[i] = 0
        return repairs

    def _rewritten(
        self, window: List[int], head: Sequence[Action], subst: Substitutions
    ) -> List[Action]:
        """``head``, then the actions that the ``window`` positions stand
        for in the rewritten window, in order."""
        actions = self.actions
        out = list(head)
        for x in window:
            repl = subst.get(x)
            if repl is None:
                out.append(actions[x])
            else:
                out.extend(repl)
        return out


def _window_positions(
    positions: List[int], q: int, end: int, inserts: List[int]
) -> List[int]:
    """The ``positions`` in ``[q, end)`` and the sorted ``inserts`` (all
    inside the window), in order and without repeats."""
    lo = bisect_left(positions, q)
    window = positions[lo : bisect_left(positions, end, lo)]
    for y in inserts:
        at = bisect_left(window, y)
        if at == len(window) or window[at] != y:
            window.insert(at, y)
    return window


def _offset(
    window: List[int], q: int, head: Sequence[Action], subst: Substitutions, n: int
) -> int:
    """Offset in the materialised rewrite of entry ``n`` of
    ``ScheduleIndex._rewritten(window, head, subst)``."""
    if n < len(head):
        return n
    n -= len(head)
    for x in window:
        repl = subst.get(x)
        width = 1 if repl is None else len(repl)
        if n < width:
            break
        n -= width
    # every substitution before x added len(repl) - 1 actions
    growth = sum(len(repl) - 1 for y, repl in subst.items() if y < x)
    return len(head) + (x - q) + growth + n


def restore_dummies(
    instance: RtspInstance,
    schedule: Schedule,
    restore: Callable[[ScheduleIndex, int], Optional[ScheduleIndex]],
    max_passes: int,
) -> Schedule:
    """H1's and H2's outer loop: left-to-right sweeps over the dummy transfers.

    Each sweep offers every ``(target, obj)`` dummy transfer to
    ``restore(index, position)`` once, first occurrence first, and
    continues on the index it returns (``None`` leaves the list as it
    was). Sweeps stop after ``max_passes``, when no dummy is left or
    when a sweep changed nothing.
    """
    actions = schedule.actions()
    dummy = instance.dummy
    if not any(isinstance(a, Transfer) and a.source == dummy for a in actions):
        return Schedule(actions)  # the common case on loose fleets: no index
    index = ScheduleIndex(ArrayState(instance), actions)
    for _ in range(max_passes):
        if not index.dummies:
            break
        progressed = False
        attempted: Set[Tuple[int, int]] = set()
        while True:
            target_pos = None
            for idx in index.dummies:
                a = index.actions[idx]
                if (a.target, a.obj) not in attempted:
                    attempted.add((a.target, a.obj))
                    target_pos = idx
                    break
            if target_pos is None:
                break
            result = restore(index, target_pos)
            if result is not None:
                index = result
                progressed = True
        if not progressed:
            break
    return Schedule(index.actions)
