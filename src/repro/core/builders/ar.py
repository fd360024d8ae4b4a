"""AR — All Random (paper §4.2).

The unbiased baseline for the cost-aware greedies: at every step AR draws
uniformly at random from the currently valid pending actions — every
not-yet-performed superfluous deletion (deletions are always valid) plus
every outstanding transfer whose target currently has room (the source is
the nearest replicator at that moment, degrading to the dummy server when
the object has no live copy). The draw is repeated until both work lists
are empty.

No deadlock is possible: while deletions remain they are valid choices,
and once the last deletion is done every server's holdings are a subset
of its ``X_new`` row, so each remaining transfer fits. Any deletions left
after the final transfer simply drain out through later draws, so the
schedule ends with a random-order flush.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import ScheduleBuilder, register_builder, shuffled_pairs
from repro.core.builders.common import ActionLog
from repro.model.instance import RtspInstance
from repro.model.schedule import Schedule
from repro.model.state import CAPACITY_EPS
from repro.util.rng import ensure_rng


@register_builder
class AllRandom(ScheduleBuilder):
    """Uniformly random interleaving of valid deletions and transfers."""

    name = "AR"

    def build(self, instance: RtspInstance, rng=None) -> Schedule:
        gen = ensure_rng(rng)
        log = ActionLog(instance)
        deletions = shuffled_pairs(instance.superfluous(), gen)
        transfers = shuffled_pairs(instance.outstanding(), gen)
        # The per-step "which transfers currently fit" scan, vectorized:
        # pending transfers live in fixed (shuffled) positions with an
        # alive mask, so the ready positions come from one masked
        # comparison of free space against object sizes — in the same
        # order a scalar list scan produces, so the draw sequence (and
        # therefore the schedule) is fixed per seed.
        t_target = np.fromiter(
            (t for t, _ in transfers), dtype=np.intp, count=len(transfers)
        )
        t_obj = np.fromiter(
            (k for _, k in transfers), dtype=np.intp, count=len(transfers)
        )
        t_size = instance.sizes[t_obj]
        alive = np.ones(len(transfers), dtype=bool)
        n_alive = len(transfers)
        free = log.free
        while deletions or n_alive:
            ready = np.flatnonzero(
                alive & (free[t_target] + CAPACITY_EPS >= t_size)
            )
            total = len(deletions) + ready.size
            assert total, (
                "AR is stuck: transfers pending without space and no "
                "deletion left; X_new would violate a capacity"
            )
            draw = int(gen.integers(total))
            if draw < len(deletions):
                log.delete(*deletions.pop(draw))
            else:
                pos = int(ready[draw - len(deletions)])
                alive[pos] = False
                n_alive -= 1
                log.transfer(int(t_target[pos]), int(t_obj[pos]))
        return log.schedule()
