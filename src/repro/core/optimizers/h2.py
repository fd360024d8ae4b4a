"""H2 — create superfluous replicas to source dummy transfers (paper §4.1).

H2 complements H1: instead of moving the dummy transfer itself (which may
be impossible when the target's capacity is violated at any earlier
position), it *stages* a temporary copy of the object on a third server
``S_i`` that has free space:

* inject ``T_iki''`` immediately before the deletion ``D_i''k`` that
  destroyed the (last) source,
* re-point the dummy transfer ``T_i'kd`` to the staged copy (``T_i'ki``),
* delete the staged copy immediately afterwards (it is superfluous).

When no server has free space, H2 tries to *create* space by hoisting
deletions of superfluous replicas scheduled later, provided every object
keeps at least one replica where later transfers need one (enforced by the
window replay: destroying the source of a later transfer invalidates the
candidate and it is rejected).

Each accepted rewrite converts exactly one dummy transfer into a real one
(the injected staging transfer is always real — its source holds the
object by construction), so H2 monotonically decreases the dummy count.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.core.base import ScheduleOptimizer, register_optimizer
from repro.core.optimizers.common import (
    ArrayState,
    capture_states,
    count_dummies,
    deletion_positions_before,
    window_valid,
)
from repro.model.actions import Action, Delete, Transfer
from repro.model.instance import RtspInstance
from repro.model.schedule import Schedule


@register_optimizer
class H2CreateSuperfluousReplicas(ScheduleOptimizer):
    """Stage temporary replicas on spare storage to feed dummy transfers.

    Parameters
    ----------
    max_deletion_candidates:
        How many preceding deletions of the object to consider as staging
        points (nearest first; the paper uses the first one found).
    max_stage_candidates:
        How many staging servers to try per deletion point (cheapest
        relays first).
    max_space_makers:
        Cap on how many later deletions may be hoisted to free space for
        the staged replica on one server.
    max_passes:
        Number of full sweeps over the schedule.
    """

    name = "H2"

    def __init__(
        self,
        max_deletion_candidates: int = 4,
        max_stage_candidates: int = 16,
        max_space_makers: int = 4,
        max_passes: int = 4,
    ) -> None:
        self.max_deletion_candidates = max_deletion_candidates
        self.max_stage_candidates = max_stage_candidates
        self.max_space_makers = max_space_makers
        self.max_passes = max_passes

    # ------------------------------------------------------------------
    def optimize(
        self, instance: RtspInstance, schedule: Schedule, rng=None
    ) -> Schedule:
        actions = schedule.actions()
        origin = ArrayState(instance)
        for _ in range(self.max_passes):
            if count_dummies(instance, actions) == 0:
                break
            actions, progressed = self._sweep(origin, actions)
            if not progressed:
                break
        return Schedule(actions)

    def _sweep(
        self, origin: ArrayState, actions: List[Action]
    ) -> Tuple[List[Action], bool]:
        progressed = False
        attempted: Set[Tuple[int, int]] = set()
        dummy = origin.views.dummy
        while True:
            target_pos = None
            for idx, a in enumerate(actions):
                if (
                    isinstance(a, Transfer)
                    and a.source == dummy
                    and (a.target, a.obj) not in attempted
                ):
                    attempted.add((a.target, a.obj))
                    target_pos = idx
                    break
            if target_pos is None:
                return actions, progressed
            result = self._restore(origin, actions, target_pos)
            if result is not None:
                actions = result
                progressed = True

    # ------------------------------------------------------------------
    def _restore(
        self, origin: ArrayState, actions: List[Action], p: int
    ) -> Optional[List[Action]]:
        t = actions[p]
        assert isinstance(t, Transfer)
        i_prime, k = t.target, t.obj
        destinations = deletion_positions_before(actions, p, k)[
            : self.max_deletion_candidates
        ]
        if not destinations:
            return None
        states = capture_states(origin, actions, destinations)
        for q in destinations:
            deletion = actions[q]
            assert isinstance(deletion, Delete)
            source = deletion.server  # the paper's S_i''
            state_q = states[q]
            stages = self._stage_candidates(i_prime, k, source, state_q)
            result = self._stage_on_free_server(
                actions, p, q, i_prime, k, source, state_q, stages
            )
            if result is not None:
                return result
            result = self._stage_with_space_making(
                actions, p, q, i_prime, k, source, state_q, stages
            )
            if result is not None:
                return result
        return None

    # ------------------------------------------------------------------
    def _stage_candidates(
        self,
        i_prime: int,
        k: int,
        source: int,
        state_q: ArrayState,
    ) -> List[int]:
        """Servers eligible to hold the staged replica, cheapest first.

        Eligibility: not the deleting server, not the dummy-transfer's own
        target (that case is H1's move), and not already a replicator at
        the staging point. Ordered by the added transfer cost
        ``l[i, source] + l[i_prime, i]`` so the cheapest staging relay is
        tried first (the paper picks any server with space; ordering by
        cost is a pure refinement).
        """
        row = state_q.views.row
        relay = row(i_prime)
        eligible = [
            i
            for i in range(state_q.views.dummy)  # real servers precede it
            if i != source and i != i_prime and not state_q.holds(i, k)
        ]
        eligible.sort(key=lambda i: (row(i)[source] + relay[i], i))
        return eligible[: self.max_stage_candidates]

    def _stage_on_free_server(
        self,
        actions: List[Action],
        p: int,
        q: int,
        i_prime: int,
        k: int,
        source: int,
        state_q: ArrayState,
        stages: List[int],
    ) -> Optional[List[Action]]:
        size = state_q.views.sizes[k]
        for i in stages:
            if state_q.free[i] < size:
                continue
            window = (
                [Transfer(i, k, source)]
                + list(actions[q:p])
                + [Transfer(i_prime, k, i), Delete(i, k)]
            )
            if window_valid(state_q, window):
                return list(actions[:q]) + window + list(actions[p + 1 :])
        return None

    def _stage_with_space_making(
        self,
        actions: List[Action],
        p: int,
        q: int,
        i_prime: int,
        k: int,
        source: int,
        state_q: ArrayState,
        stages: List[int],
    ) -> Optional[List[Action]]:
        """Hoist later deletions at a candidate server to make room."""
        sizes = state_q.views.sizes
        size = sizes[k]
        n = len(actions)
        for i in stages:
            deficit = size - state_q.free[i]
            if deficit <= 0:
                continue  # already tried by _stage_on_free_server
            later_dels = [
                idx
                for idx in range(q + 1, n)
                if isinstance(actions[idx], Delete)
                and actions[idx].server == i
                and actions[idx].obj != k
            ][: self.max_space_makers]
            freed = 0.0
            chosen: List[int] = []
            for idx in later_dels:
                chosen.append(idx)
                freed += sizes[actions[idx].obj]
                if freed < deficit:
                    continue
                removed = set(chosen)
                end = max(p, max(chosen)) + 1
                window = (
                    [actions[x] for x in chosen]
                    + [Transfer(i, k, source)]
                    + [actions[x] for x in range(q, p) if x not in removed]
                    + [Transfer(i_prime, k, i), Delete(i, k)]
                    + [actions[x] for x in range(p + 1, end) if x not in removed]
                )
                if window_valid(state_q, window):
                    return list(actions[:q]) + window + list(actions[end:])
        return None
