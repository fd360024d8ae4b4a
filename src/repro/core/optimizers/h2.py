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
indexed validity check: destroying the source of a later transfer
invalidates the candidate and it is rejected).

Each accepted rewrite converts exactly one dummy transfer into a real one
(the injected staging transfer is always real — its source holds the
object by construction), so H2 monotonically decreases the dummy count.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.base import ScheduleOptimizer, register_optimizer
from repro.core.optimizers.common import ScheduleIndex, restore_dummies
from repro.model.actions import Delete, Transfer
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
        return restore_dummies(
            instance,
            schedule,
            self._restore,
            self.max_passes,
        )

    # ------------------------------------------------------------------
    def _restore(self, index: ScheduleIndex, p: int) -> Optional[ScheduleIndex]:
        actions = index.actions
        t = actions[p]
        assert isinstance(t, Transfer)
        i_prime, k = t.target, t.obj
        destinations = index.deletions_before(p, k)[
            : self.max_deletion_candidates
        ]
        for q in destinations:
            deletion = actions[q]
            assert isinstance(deletion, Delete)
            source = deletion.server  # the paper's S_i''
            stages = self._stage_candidates(index, q, i_prime, k, source)
            free = {i: index.free_at(i, q) for i in stages}
            result = self._stage_on_free_server(
                index, p, q, i_prime, k, source, free
            )
            if result is not None:
                return result
            result = self._stage_with_space_making(
                index, p, q, i_prime, k, source, free
            )
            if result is not None:
                return result
        return None

    # ------------------------------------------------------------------
    def _stage_candidates(
        self, index: ScheduleIndex, q: int, i_prime: int, k: int, source: int
    ) -> List[int]:
        """Servers eligible to hold the staged replica, cheapest first.

        Eligibility: not the deleting server, not the dummy-transfer's own
        target (that case is H1's move), and not already a replicator at
        the staging point ``q``. Ordered by the added transfer cost
        ``l[i, source] + l[i_prime, i]`` so the cheapest staging relay is
        tried first (the paper picks any server with space; ordering by
        cost is a pure refinement).
        """
        row = index.origin.views.row
        relay = row(i_prime)
        holders = index.holders_at(k, q)
        eligible = [
            i
            for i in range(len(holders))
            if i != source and i != i_prime and not holders[i]
        ]
        eligible.sort(key=lambda i: (row(i)[source] + relay[i], i))
        return eligible[: self.max_stage_candidates]

    def _stage_on_free_server(
        self,
        index: ScheduleIndex,
        p: int,
        q: int,
        i_prime: int,
        k: int,
        source: int,
        free: Dict[int, float],
    ) -> Optional[ScheduleIndex]:
        """Stage on a candidate whose free space at ``q`` already fits."""
        size = index.origin.views.sizes[k]
        for i, room in free.items():
            if room < size:
                continue
            head = [Transfer(i, k, source)]
            subst = {p: (Transfer(i_prime, k, i), Delete(i, k))}
            if index.rewrite_valid(q, p + 1, head, subst):
                return index.splice(q, p + 1, head, subst)
        return None

    def _stage_with_space_making(
        self,
        index: ScheduleIndex,
        p: int,
        q: int,
        i_prime: int,
        k: int,
        source: int,
        free: Dict[int, float],
    ) -> Optional[ScheduleIndex]:
        """Hoist later deletions at a candidate server to make room."""
        actions = index.actions
        sizes = index.origin.views.sizes
        size = sizes[k]
        for i, room in free.items():
            deficit = size - room
            if deficit <= 0:
                continue  # already tried by _stage_on_free_server
            later_dels = [
                x
                for x in index.server_deletions_between(q, len(actions), i)
                if actions[x].obj != k
            ][: self.max_space_makers]
            freed = 0.0
            head = [Transfer(i, k, source)]
            subst = {p: (Transfer(i_prime, k, i), Delete(i, k))}
            for x in later_dels:
                head.insert(-1, actions[x])
                subst[x] = ()
                freed += sizes[actions[x].obj]
                if freed < deficit:
                    continue
                end = max(p, x) + 1
                if index.rewrite_valid(q, end, head, subst):
                    return index.splice(q, end, head, subst)
        return None
