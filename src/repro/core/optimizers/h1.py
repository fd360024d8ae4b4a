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

Every candidate is proven by replaying its rewrite window (see
:mod:`repro.core.optimizers.common` for why window validity implies
whole-schedule validity), and every accepted rewrite converts exactly one
dummy transfer into a real one, so the optimizer terminates with a valid
schedule whose dummy count never increases.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.core.base import ScheduleOptimizer, register_optimizer
from repro.core.optimizers.common import (
    ArrayState,
    blocking_transfer,
    capture_states,
    count_dummies,
    deletion_positions_before,
    is_standalone_deletion,
    server_deletions_between,
    window_valid,
)
from repro.model.actions import Action, Delete, Transfer
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
        """One left-to-right pass attempting each dummy transfer once."""
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
            result = self._restore(origin, actions, target_pos, self.max_depth)
            if result is not None:
                actions = result
                progressed = True

    # ------------------------------------------------------------------
    def _restore(
        self,
        origin: ArrayState,
        actions: List[Action],
        p: int,
        depth: int,
    ) -> Optional[List[Action]]:
        """Try to eliminate the dummy transfer at ``p``.

        ``origin`` is the state before position 0 (see
        :func:`~repro.core.optimizers.common.capture_states`).

        Returns a complete rewritten action list whose dummy count is
        strictly lower than the input's, or ``None``.
        """
        t = actions[p]
        assert isinstance(t, Transfer)
        i, k = t.target, t.obj
        destinations = deletion_positions_before(actions, p, k)[
            : self.max_deletion_candidates
        ]
        if not destinations:
            return None
        states = capture_states(origin, actions, destinations)
        for q in destinations:
            deletion = actions[q]
            assert isinstance(deletion, Delete)
            j = deletion.server
            if j == i:
                continue
            restored = Transfer(i, k, j)
            state_q = states[q]
            # Case (i): plain move right before D_jk.
            window = [restored] + list(actions[q:p])
            if window_valid(state_q, window):
                return list(actions[:q]) + window + list(actions[p + 1 :])
            result = self._hoist_standalone(actions, p, q, restored, state_q)
            if result is not None:
                return result
            result = self._move_pairs(
                origin, actions, p, q, restored, state_q, depth
            )
            if result is not None:
                return result
        return None

    # ------------------------------------------------------------------
    def _hoist_standalone(
        self,
        actions: List[Action],
        p: int,
        q: int,
        restored: Transfer,
        state_q: ArrayState,
    ) -> Optional[List[Action]]:
        """Case (ii): hoist standalone deletions of the target to make room.

        Standalone deletions are tried in schedule order, accumulating one
        more per attempt until capacity suffices (the replay decides).
        """
        i = restored.target
        dels = server_deletions_between(actions, q, p, i)
        standalone = [r for r in dels if is_standalone_deletion(actions, q, r)]
        chosen: List[int] = []
        for r in standalone:
            chosen.append(r)
            removed = set(chosen)
            window = (
                [actions[x] for x in chosen]
                + [restored]
                + [actions[x] for x in range(q, p) if x not in removed]
            )
            if window_valid(state_q, window):
                return list(actions[:q]) + window + list(actions[p + 1 :])
        return None

    def _move_pairs(
        self,
        origin: ArrayState,
        actions: List[Action],
        p: int,
        q: int,
        restored: Transfer,
        state_q: ArrayState,
        depth: int,
    ) -> Optional[List[Action]]:
        """Case (iii): hoist a deletion together with its feeding transfer.

        For a deletion ``D_ik'`` whose replica is re-homed by a preceding
        transfer ``T_i''k'i``, move the pair before the restored transfer.
        If the pair move fails (typically capacity at ``S_i''``), convert
        the feeding transfer into a dummy transfer in place and recursively
        restore *it* — the separating window shrinks at each level, so the
        recursion terminates; on failure everything backtracks.
        """
        i = restored.target
        dels = server_deletions_between(actions, q, p, i)
        for r in dels:
            if is_standalone_deletion(actions, q, r):
                continue  # handled by case (ii)
            b = blocking_transfer(actions, q, r)
            if b is None:
                continue  # blocked by a creation, not a re-homing: unmovable
            feeding = actions[b]
            assert isinstance(feeding, Transfer)
            # Pair move: feeding transfer, then the deletion, then the
            # restored transfer, all placed before D_jk at q.
            removed = {b, r}
            window = [feeding, actions[r], restored] + [
                actions[x] for x in range(q, p) if x not in removed
            ]
            if window_valid(state_q, window):
                return list(actions[:q]) + window + list(actions[p + 1 :])
            if depth <= 0:
                continue
            # Recursive variant (paper's H''): hoist the deletion, restore
            # our transfer, and leave the feeding transfer in place as a
            # *dummy* transfer to be restored recursively.
            converted = Transfer(feeding.target, feeding.obj, origin.views.dummy)
            window2 = [actions[r], restored] + [
                (converted if x == b else actions[x])
                for x in range(q, p)
                if x != r
            ]
            if not window_valid(state_q, window2):
                continue
            staged = list(actions[:q]) + window2 + list(actions[p + 1 :])
            # Position of the converted transfer: two actions were inserted
            # at q and only positions after b changed (r > b always).
            pos = b + 2
            assert staged[pos] is converted
            deeper = self._restore(origin, staged, pos, depth - 1)
            if deeper is not None:
                return deeper
        return None
