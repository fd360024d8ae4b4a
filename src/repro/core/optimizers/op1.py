"""OP1 — reorder same-object transfers to cut cost (paper §4.2, from [14]).

OP1 scans the schedule for a pair of transfers of the same object,
``T_i'kj' … T_ikj``, and considers executing the *later* one first: moved
to the earlier position, ``S_i`` obtains the object sooner and can serve
as a cheap source for every subsequent transfer of that object (including
``T_i'kj'`` itself), which are re-pointed to ``S_i`` whenever that is
cheaper. The move happens only when the total benefit outweighs the moved
transfer's own cost change plus any penalties from the validity repairs of
the paper's cases (ii)–(iv):

* deletions on ``S_i`` that enabled the moved transfer are hoisted with it
  (case iv),
* transfers that used ``S_i`` as a source for a replica deleted earlier by
  the hoist are re-pointed to their then-nearest replicator, paying a
  penalty (case iii),
* rewrites that would duplicate replicas or delete not-yet-created ones
  simply fail the window replay and are dropped (case ii).

Acceptance requires the rewrite window to replay validly *and* the total
cost delta to be strictly negative, so the optimizer monotonically
decreases cost and terminates. Every candidate is decided from a
:class:`~repro.core.optimizers.common.ScheduleIndex`: the new source
from the object's holders at ``p1``, the window's verdict and its case
(iii) repairs from :meth:`~ScheduleIndex.rewrite_repairs`. The window is
materialised only when a repair happened (to cost it) or the rewrite is
accepted.

After each accepted change the scan restarts from the beginning (the
paper's policy); ``restart=False`` continues in place — an ablation
measured in ``benchmarks/test_op1_restart.py``. A restart re-decides
only what the accepted rewrite could have changed. That rewrite, at
``(p1, p2)`` of object ``k``, keeps the list's length, leaves ``[0, p1)``
in place and only reorders deletions, and every candidate before ``p1``
was rejected by the scan that accepted it. A candidate ``(p1', p2')``
with ``p2' < p1`` reads its state, window and hoists from that
unchanged prefix, its ``deletes`` answer from the list's deletions, and
from the rest of the list only the targets and sources of its object's
later transfers, in their order (its optimistic bound and its tail
re-points). Those change only for the objects whose transfers the
rewrite re-sourced: ``k`` (the moved transfer and the re-points through
``S_i``) and every object whose transfer the case-(iii) repair
re-pointed. A hoisted deletion at ``S_i`` can strand a transfer of
another object that sourced from ``S_i``, so that *touched set* is not
just ``k``. The restart therefore skips a candidate when ``p2' < p1``
and its object is outside the touched set; its verdict is the
rejection it already had. Schedules are byte-identical to the plain
restart scan (``tests/core/test_op1_digests.py``,
``tests/properties/test_op1_index.py``).
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import AbstractSet, Iterator, List, Optional, Set, Tuple

from repro.core.base import ScheduleOptimizer, register_optimizer
from repro.core.optimizers.common import ArrayState, ScheduleIndex, action_costs
from repro.model.actions import Action, Transfer
from repro.model.instance import RtspInstance
from repro.model.schedule import Schedule

#: Minimum cost improvement for a rewrite to be accepted (guards float
#: round-off from producing endless micro-"improvements").
COST_EPS = 1e-9

#: Most case-(iii) re-pointings one rewrite may need.
MAX_REPAIRS = 64


@register_optimizer
class OP1ReorderTransfers(ScheduleOptimizer):
    """Cost-driven reordering of same-object transfer pairs.

    Parameters
    ----------
    restart:
        Restart the scan from position 0 after each accepted change (the
        paper's behaviour). ``False`` continues scanning in place, which
        is faster and usually within a percent of the same final cost.
    max_rounds:
        Upper bound on accepted changes (safety rail; cost strictly
        decreases each round so the bound is rarely reached in practice).
    """

    name = "OP1"

    def __init__(self, restart: bool = True, max_rounds: int = 100_000) -> None:
        self.restart = restart
        self.max_rounds = max_rounds

    # ------------------------------------------------------------------
    def optimize(
        self, instance: RtspInstance, schedule: Schedule, rng=None
    ) -> Schedule:
        index = ScheduleIndex(ArrayState(instance), schedule.actions())
        settled, touched = 0, frozenset()
        rounds = 0
        while rounds < self.max_rounds:
            result = self._scan(index, settled, touched)
            if result is None:
                break
            index, settled, touched = result
            rounds += 1
        return Schedule(index.actions)

    # ------------------------------------------------------------------
    def _scan(
        self, index: ScheduleIndex, settled: int, touched: AbstractSet[int]
    ) -> Optional[Tuple[ScheduleIndex, int, AbstractSet[int]]]:
        """One scan; returns ``(index, settled, touched)`` after a change,
        or ``None`` if nothing improved.

        A candidate ``(p1, p2)`` with ``p2 < settled`` whose object is not
        in ``touched`` is skipped (see the module docstring). With
        ``restart=True`` the scan returns at the first accepted change,
        at ``p1`` of object ``k``, with ``settled = p1`` and ``touched``
        the objects the rewrite re-sourced. With ``restart=False`` it
        applies changes in place and returns the list at the end of the
        pass, with nothing to skip.
        """
        improved, start = False, 0
        while True:
            for p1, p2 in _candidates(index, start, settled, touched):
                accepted = self._consider(index, p1, p2)
                if accepted is not None:
                    break
            else:
                return (index, 0, frozenset()) if improved else None
            actions, resourced = accepted
            index = ScheduleIndex(index.origin, actions)
            if self.restart:
                return index, p1, resourced
            # Continue in place: the prefix [0, p1) is unchanged;
            # re-examine from p1.
            improved, start = True, p1

    # ------------------------------------------------------------------
    def _consider(
        self, index: ScheduleIndex, p1: int, p2: int
    ) -> Optional[Tuple[List[Action], Set[int]]]:
        """Evaluate moving the transfer at ``p2`` to just before ``p1``.

        On acceptance returns the complete rewritten action list and the
        objects whose transfers it re-sourced (the moved object and those
        the case-(iii) repair re-pointed).
        """
        actions = index.actions
        moved = actions[p2]
        assert isinstance(moved, Transfer)
        i, k = moved.target, moved.obj
        views = index.origin.views
        row, size = views.row, views.sizes[k]
        row_i = row(i)
        positions_k = [
            x for x in index.by_obj[k] if isinstance(actions[x], Transfer)
        ]

        new_source = index.nearest_at(i, k, p1)
        # Optimistic bound: the moved transfer's own cost change plus the
        # best-case re-pointing savings for every other transfer of the
        # object at or after p1. Skip candidate construction (the
        # expensive part) when even the optimistic total is non-positive.
        optimistic = size * (row_i[moved.source] - row_i[new_source])
        for idx in positions_k:
            if idx < p1 or idx == p2:
                continue
            t = actions[idx]
            if t.target != i:
                row_t = row(t.target)
                optimistic += max(0.0, size * (row_t[t.source] - row_t[i]))
        if optimistic <= COST_EPS:
            return None

        # Re-pointing through S_i is only safe while S_i keeps the object;
        # if some later action deletes (i, k), skip tail re-points (window
        # re-points are still checked by the replay).
        i_keeps_obj = not index.deletes(i, k)
        replacement = Transfer(i, k, new_source)

        for hoist in (False, True):
            hoisted: List[int] = []
            if hoist:
                hoisted = index.server_deletions_between(p1, p2, i)
                if not hoisted:
                    break  # identical to the no-hoist variant

            # --- the rewrite of the window [p1, p2] ----------------------
            head: List[Action] = [actions[idx] for idx in hoisted]
            head.append(replacement)
            subst = dict.fromkeys(hoisted, ())
            subst[p2] = ()
            delta = size * (row_i[new_source] - row_i[moved.source])
            for idx in positions_k:
                if idx < p1 or idx >= p2:
                    continue
                a = actions[idx]
                if a.target != i:
                    row_a = row(a.target)
                    if row_a[i] < row_a[a.source]:
                        delta += size * (row_a[i] - row_a[a.source])
                        subst[idx] = (a.with_source(i),)

            repairs = index.rewrite_repairs(p1, p2 + 1, head, subst, MAX_REPAIRS)
            if repairs is None:
                continue
            window: Optional[List[Action]] = None
            if repairs:
                # Repair penalty (case iii): the repaired window's cost
                # minus the window's, each summed in window order, as
                # actions_cost sums them.
                window = index.window(p1, p2 + 1, head, subst)
                costs = action_costs(views, window)
                before = reduce(add, costs, 0.0)
                for offset, source in repairs.items():
                    stranded = window[offset]
                    window[offset] = stranded.with_source(source)
                    costs[offset] = (
                        views.sizes[stranded.obj] * row(stranded.target)[source]
                    )
                delta += reduce(add, costs, 0.0) - before

            # --- tail re-points (transfers of k after the window) --------
            tail_repoints: List[int] = []
            if i_keeps_obj:
                for idx in positions_k:
                    if idx <= p2:
                        continue
                    t = actions[idx]
                    if t.target == i:
                        continue
                    row_t = row(t.target)
                    if row_t[i] < row_t[t.source]:
                        delta += size * (row_t[i] - row_t[t.source])
                        tail_repoints.append(idx)

            if delta >= -COST_EPS:
                continue
            if window is None:
                window = index.window(p1, p2 + 1, head, subst)
            out = actions[:p1]
            out.extend(window)
            out.extend(actions[p2 + 1 :])
            for idx in tail_repoints:
                out[idx] = out[idx].with_source(i)
            resourced = {window[offset].obj for offset in repairs}
            resourced.add(k)
            return out, resourced
        return None


def _candidates(
    index: ScheduleIndex, start: int, settled: int, touched: AbstractSet[int]
) -> Iterator[Tuple[int, int]]:
    """The pairs ``(p1, p2)`` a scan decides, in scan order: each
    transfer at ``p1 >= start`` with ``p2`` the next transfer of its
    object, unless ``p2 < settled`` and the object is not in
    ``touched``."""
    actions = index.actions
    following: List[Optional[int]] = [None] * len(actions)
    last: List[Optional[int]] = [None] * index.origin.views.num_objects
    for pos in range(len(actions) - 1, start - 1, -1):
        a = actions[pos]
        if isinstance(a, Transfer):
            following[pos] = last[a.obj]
            last[a.obj] = pos
    for p1 in range(start, len(actions)):
        p2 = following[p1]
        if p2 is not None and (p2 >= settled or actions[p1].obj in touched):
            yield p1, p2
