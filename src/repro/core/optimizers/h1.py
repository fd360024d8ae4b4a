"""H1 — move dummy transfers before deletions (paper §4.1).

H1 scans an existing schedule left to right; whenever it finds a dummy
transfer ``T_ikd`` it tries to move it back in time, to just before a
deletion ``D_jk`` of the same object, turning it into a proper transfer
``T_ikj``. Moving a transfer earlier can violate the target's storage
constraint, which H1 repairs in three escalating ways (paper cases i–iii):

(i)   nothing at the target happens in between — the plain move is valid;
(ii)  hoist *standalone* deletions of the target (deletions not fed by, or
      feeding, any transfer in the separating window) before the moved
      transfer to make room;
(iii) move a deletion *together with* the transfer that re-homes its
      replica; if that transfer's own target now lacks space, recursively
      treat it as a dummy transfer and restore it the same way, over an
      ever-shrinking window. Failing that, backtrack and leave the
      original dummy transfer in place.

Every candidate is proven from a :class:`ScheduleIndex` of the list, by
replaying only the free space of the servers and the cells of the
objects it touches (see :mod:`repro.core.optimizers.common` for why that
decides the whole schedule), and every accepted rewrite converts exactly
one dummy transfer into a real one, so the optimizer terminates with a
valid schedule whose dummy count never increases.
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import ScheduleOptimizer, register_optimizer
from repro.core.optimizers.common import ScheduleIndex, restore_dummies
from repro.model.actions import Delete, Transfer
from repro.model.instance import RtspInstance
from repro.model.schedule import Schedule


@register_optimizer
class H1MoveDummyTransfers(ScheduleOptimizer):
    """Eliminate dummy transfers by moving them before deletions.

    Parameters
    ----------
    max_depth:
        Recursion budget for case (iii) (the paper's recursion terminates
        because the separating window shrinks; the budget is a safety rail).
    max_deletion_candidates:
        How many preceding deletions of the object to try as the move
        destination. The paper uses the nearest one only; trying a few
        more is a strict superset that can only remove more dummies.
    max_passes:
        Number of full left-to-right sweeps (a sweep that changes nothing
        ends the loop early).
    """

    name = "H1"

    def __init__(
        self,
        max_depth: int = 6,
        max_deletion_candidates: int = 4,
        max_passes: int = 4,
    ) -> None:
        self.max_depth = max_depth
        self.max_deletion_candidates = max_deletion_candidates
        self.max_passes = max_passes

    # ------------------------------------------------------------------
    def optimize(
        self, instance: RtspInstance, schedule: Schedule, rng=None
    ) -> Schedule:
        return restore_dummies(
            instance,
            schedule,
            lambda index, p: self._restore(index, p, self.max_depth),
            self.max_passes,
        )

    # ------------------------------------------------------------------
    def _restore(
        self, index: ScheduleIndex, p: int, depth: int
    ) -> Optional[ScheduleIndex]:
        """Try to eliminate the dummy transfer at ``p``.

        Returns the index of a complete rewritten action list whose dummy
        count is strictly lower than the input's, or ``None``.
        """
        actions = index.actions
        t = actions[p]
        assert isinstance(t, Transfer)
        i, k = t.target, t.obj
        destinations = index.deletions_before(p, k)[
            : self.max_deletion_candidates
        ]
        for q in destinations:
            deletion = actions[q]
            assert isinstance(deletion, Delete)
            j = deletion.server
            if j == i:
                continue
            restored = Transfer(i, k, j)
            # Case (i): plain move right before D_jk.
            head, subst = [restored], {p: ()}
            if index.rewrite_valid(q, p + 1, head, subst):
                return index.splice(q, p + 1, head, subst)
            result = self._hoist_standalone(index, p, q, restored)
            if result is not None:
                return result
            result = self._move_pairs(index, p, q, restored, depth)
            if result is not None:
                return result
        return None

    # ------------------------------------------------------------------
    def _hoist_standalone(
        self, index: ScheduleIndex, p: int, q: int, restored: Transfer
    ) -> Optional[ScheduleIndex]:
        """Case (ii): hoist standalone deletions of the target to make room.

        Standalone deletions are tried in schedule order, accumulating one
        more per attempt until capacity suffices (the replay decides).
        """
        actions = index.actions
        dels = index.server_deletions_between(q, p, restored.target)
        head = [restored]
        subst = {p: ()}
        for r in dels:
            if not index.is_standalone(q, r):
                continue
            head.insert(-1, actions[r])
            subst[r] = ()
            if index.rewrite_valid(q, p + 1, head, subst):
                return index.splice(q, p + 1, head, subst)
        return None

    def _move_pairs(
        self,
        index: ScheduleIndex,
        p: int,
        q: int,
        restored: Transfer,
        depth: int,
    ) -> Optional[ScheduleIndex]:
        """Case (iii): hoist a deletion together with its feeding transfer.

        For a deletion ``D_ik'`` whose replica is re-homed by a preceding
        transfer ``T_i''k'i``, move the pair before the restored transfer.
        If the pair move fails (typically capacity at ``S_i''``), convert
        the feeding transfer into a dummy transfer in place and recursively
        restore *it* — the separating window shrinks at each level, so the
        recursion terminates; on failure everything backtracks.
        """
        actions = index.actions
        dels = index.server_deletions_between(q, p, restored.target)
        for r in dels:
            if index.is_standalone(q, r):
                continue  # handled by case (ii)
            b = index.blocking_transfer(q, r)
            if b is None:
                continue  # blocked by a creation, not a re-homing: unmovable
            feeding = actions[b]
            assert isinstance(feeding, Transfer)
            # Pair move: feeding transfer, then the deletion, then the
            # restored transfer, all placed before D_jk at q.
            head = [feeding, actions[r], restored]
            subst = {b: (), r: (), p: ()}
            if index.rewrite_valid(q, p + 1, head, subst):
                return index.splice(q, p + 1, head, subst)
            if depth <= 0:
                continue
            # Recursive variant (paper's H''): hoist the deletion, restore
            # our transfer, and leave the feeding transfer in place as a
            # *dummy* transfer to be restored recursively.
            converted = Transfer(
                feeding.target, feeding.obj, index.origin.views.dummy
            )
            head = [actions[r], restored]
            subst = {b: (converted,), r: (), p: ()}
            if not index.rewrite_valid(q, p + 1, head, subst):
                continue
            staged = index.splice(q, p + 1, head, subst)
            # Position of the converted transfer: two actions were inserted
            # at q and only positions after b changed (r > b always).
            pos = b + 2
            assert staged.actions[pos] is converted
            deeper = self._restore(staged, pos, depth - 1)
            if deeper is not None:
                return deeper
        return None
