"""NSR — Nearest-Source Refinement (extension beyond the paper).

A single linear pass that re-points every transfer to the cheapest
source available *at its own position*. The builders already pick
nearest sources at build time, but the H1/H2/OP1 rewrites move actions
around, after which a transfer's recorded source may no longer be the
cheapest replicator at its (new) position. NSR closes those gaps:

* it never changes the action order, only transfer sources;
* each re-point strictly lowers that transfer's cost, so the schedule's
  total cost is non-increasing;
* sources are replicators in the current replay state, so validity is
  preserved by construction (the state trajectory does not depend on
  sources at all).

Cheap enough (one replay) to append to any pipeline, e.g.
``GOLCF+H1+H2+OP1+NSR``.
"""

from __future__ import annotations

from typing import List

from repro.core.base import ScheduleOptimizer, register_optimizer
from repro.core.optimizers.common import ArrayState
from repro.model.actions import Action, Transfer
from repro.model.instance import RtspInstance
from repro.model.schedule import Schedule


@register_optimizer
class NearestSourceRefinement(ScheduleOptimizer):
    """Re-point every transfer to its position's cheapest source."""

    name = "NSR"

    def optimize(
        self, instance: RtspInstance, schedule: Schedule, rng=None
    ) -> Schedule:
        state = ArrayState(instance)
        row = state.views.row
        out: List[Action] = []
        for action in schedule:
            if isinstance(action, Transfer):
                best = state.nearest(action.target, action.obj)
                costs = row(action.target)
                if costs[best] < costs[action.source]:
                    action = action.with_source(best)
            state.apply(action)
            out.append(action)
        return Schedule(out)
