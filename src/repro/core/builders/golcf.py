"""GOLCF — Greedy Object Lowest Cost First (paper §4.2).

The paper's cost-aware builder serves objects one at a time. The next
object is the owner of the globally cheapest pending transfer (size times
nearest-replicator cost, evaluated against the *current* state); once an
object is selected, all of its outstanding targets are served before
moving on, each step picking the target whose nearest source is cheapest
at that moment. Serving an object contiguously is the point: the first
copies delivered immediately become nearby sources for the remaining
targets of the same object.

Deletions are interleaved on demand. When the chosen target lacks room,
superfluous replicas at that target are evicted in increasing order of the
deletion benefit ``B_ik`` (paper eq. 4) — the replica whose loss hurts
still-waiting targets least goes first. Superfluous replicas nobody
needed to evict are flushed, in random order, after the last transfer.

All tie-breaks (object selection, target selection, eviction victim) fall
to the first minimum of a per-seed shuffled work list, so runs are
deterministic per seed and vary across seeds.
"""

from __future__ import annotations

from repro.core.base import ScheduleBuilder, register_builder
from repro.core.builders.common import (
    ActionLog,
    EvictionBenefitCache,
    PendingTransferSelector,
    evict_for,
    flush_deletions,
    pending_deletion_map,
    pending_transfer_map,
)
from repro.model.instance import RtspInstance
from repro.model.schedule import Schedule
from repro.model.state import CAPACITY_EPS
from repro.util.rng import ensure_rng


@register_builder
class GreedyObjectLowestCostFirst(ScheduleBuilder):
    """Cheapest object first, served whole; benefit-ordered evictions."""

    name = "GOLCF"

    def build(self, instance: RtspInstance, rng=None) -> Schedule:
        gen = ensure_rng(rng)
        log = ActionLog(instance)
        targets, waiting = pending_transfer_map(instance, gen)
        deletions = pending_deletion_map(instance, gen)
        state = log.state
        selector = PendingTransferSelector(state, targets)
        benefits = EvictionBenefitCache(state, waiting)
        sizes = instance.sizes.tolist()
        rows = state.cost_rows
        while not selector.exhausted:
            best_obj, _, _ = selector.best()
            pend = targets.pop(best_obj)
            selector.pop_object(best_obj)
            obj_waiting = waiting[best_obj]
            size = sizes[best_obj]
            while pend:
                # Cheapest target of the chosen object at this moment,
                # and its nearest source.
                best_pos, best_unit, best_source = 0, None, None
                for pos, t in enumerate(pend):
                    source = state.nearest(t, best_obj)
                    unit = rows[t][source]
                    if best_unit is None or unit < best_unit:
                        best_pos, best_unit, best_source = pos, unit, source
                target = pend.pop(best_pos)
                if state.free_space(target) + CAPACITY_EPS < size:
                    # Evictions at ``target`` never touch ``best_obj``'s
                    # holders (it is not superfluous where it is
                    # pending), so ``best_source`` stays the nearest.
                    victims = evict_for(log, target, best_obj, deletions, benefits)
                    for victim in victims:
                        selector.mark_dirty(victim)
                log.transfer(target, best_obj, best_source)
                obj_waiting.discard(target)
        flush_deletions(log, deletions, gen)
        return log.schedule()
