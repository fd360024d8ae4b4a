"""GMC — Global Minimum Cost First (extension; not in the paper).

An ablation of GOLCF's object-at-a-time rule: GMC drops the contiguity
constraint and, at every step, performs the globally cheapest pending
transfer — over *all* objects — given the current state (size times
nearest-replicator cost). Everything else matches GOLCF: room at the
chosen target is made by evicting superfluous replicas in increasing
benefit order (paper eq. 4), and untouched superfluous replicas are
flushed in random order at the end.

Because eviction only ever happens at the transfer's own target, the
chosen transfer's cost cannot change between selection and execution,
and other pending transfers can only get more expensive (a deletion never
adds a source) — so each executed transfer is provably the cheapest
pending one at its position in the schedule.
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
from repro.util.rng import ensure_rng


@register_builder
class GlobalMinimumCostFirst(ScheduleBuilder):
    """Globally cheapest pending transfer each step (GOLCF ablation)."""

    name = "GMC"

    def build(self, instance: RtspInstance, rng=None) -> Schedule:
        gen = ensure_rng(rng)
        log = ActionLog(instance)
        targets, waiting = pending_transfer_map(instance, gen)
        deletions = pending_deletion_map(instance, gen)
        selector = PendingTransferSelector(log.state, targets)
        benefits = EvictionBenefitCache(log.state, waiting)
        while not selector.exhausted:
            best_obj, best_pos, target = selector.best()
            selector.pop_target(best_obj, best_pos)
            victims = evict_for(log, target, best_obj, deletions, benefits)
            for victim in victims:
                selector.mark_dirty(victim)
            log.transfer(target, best_obj)
            # The delivered copy is a new source for the object's
            # remaining pending targets.
            selector.mark_dirty(best_obj)
            waiting[best_obj].discard(target)
        flush_deletions(log, deletions, gen)
        return log.schedule()
