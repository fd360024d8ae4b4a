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
decreases cost and terminates. After each accepted change the scan
restarts from the beginning (the paper's policy); ``restart=False``
continues in place — an ablation measured in
``benchmarks/test_op1_restart.py``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.base import ScheduleOptimizer, register_optimizer
from repro.core.optimizers.common import (
    ArrayState,
    ScheduleIndex,
    actions_cost,
    window_replay_with_repairs,
)
from repro.model.actions import Action, Transfer
from repro.model.instance import RtspInstance
from repro.model.schedule import Schedule

#: Minimum cost improvement for a rewrite to be accepted (guards float
#: round-off from producing endless micro-"improvements").
COST_EPS = 1e-9


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
        actions = schedule.actions()
        origin = ArrayState(instance)
        rounds = 0
        while rounds < self.max_rounds:
            result = self._scan(origin, actions)
            if result is None:
                break
            actions = result
            rounds += 1
        return Schedule(actions)

    # ------------------------------------------------------------------
    def _scan(
        self, origin: ArrayState, actions: List[Action]
    ) -> Optional[List[Action]]:
        """One scan; returns the improved action list or ``None``.

        With ``restart=True`` the scan returns at the first accepted
        change; with ``restart=False`` it applies changes in place and
        returns the accumulated result at the end of the pass (``None``
        if nothing improved).
        """
        index = ScheduleIndex(origin, actions)
        state = origin.copy()
        p1 = 0
        improved = False
        while p1 < len(actions):
            a1 = actions[p1]
            if isinstance(a1, Transfer):
                p2 = index.next_transfer(a1.obj, p1)
                if p2 is not None:
                    cand = self._consider(index, state, p1, p2)
                    if cand is not None:
                        actions = cand
                        improved = True
                        if self.restart:
                            return actions
                        # Continue in place: the prefix [0, p1) — and thus
                        # `state` — is unchanged; re-examine from p1.
                        index = ScheduleIndex(origin, actions)
                        continue
            state.apply(a1)
            p1 += 1
        return actions if improved else None

    # ------------------------------------------------------------------
    def _consider(
        self,
        index: ScheduleIndex,
        state: ArrayState,
        p1: int,
        p2: int,
    ) -> Optional[List[Action]]:
        """Evaluate moving the transfer at ``p2`` to just before ``p1``.

        ``state`` is the replication state before position ``p1``.
        Returns the complete rewritten action list on acceptance.
        """
        actions = index.actions
        moved = actions[p2]
        assert isinstance(moved, Transfer)
        i, k = moved.target, moved.obj
        views = state.views
        row, size = views.row, views.sizes[k]
        row_i = row(i)
        positions_k = [
            x for x in index.by_obj[k] if isinstance(actions[x], Transfer)
        ]

        new_source = state.nearest(i, k)
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
            removed = set(hoisted)
            removed.add(p2)

            # --- build the rewrite window [p1, p2] -----------------------
            window: List[Action] = [actions[idx] for idx in hoisted]
            window.append(replacement)
            delta = size * (row_i[new_source] - row_i[moved.source])
            for idx in range(p1, p2 + 1):
                if idx in removed:
                    continue
                a = actions[idx]
                if isinstance(a, Transfer) and a.obj == k and a.target != i:
                    row_a = row(a.target)
                    if row_a[i] < row_a[a.source]:
                        delta += size * (row_a[i] - row_a[a.source])
                        a = a.with_source(i)
                window.append(a)

            repaired = window_replay_with_repairs(state, window)
            if repaired is None:
                continue
            # Repair penalties (case iii): cost difference of the window
            # after source re-pointing repairs.
            delta += actions_cost(views, repaired) - actions_cost(views, window)

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
            out = list(actions[:p1])
            out.extend(repaired)
            for idx in range(p2 + 1, len(actions)):
                a = actions[idx]
                if idx in tail_repoints:
                    a = a.with_source(i)
                out.append(a)
            return out
        return None
