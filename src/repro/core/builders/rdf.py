"""RDF — Random Deletions First (paper §4.1).

The simplest dummy-tolerant builder: perform *every* superfluous deletion
up front in random order, then satisfy each outstanding replica with a
transfer from the then-nearest source. Deleting everything first
guarantees storage can never block a transfer (each server's remaining
load is a subset of its ``X_new`` row), so the only failure mode left is
a destroyed source — in which case the transfer falls back to the dummy
server. RDF is maximally deadlock-proof and maximally wasteful: at zero
replica overlap it destroys every old source before any copy is made,
which is exactly the pathology H1/H2 were designed to repair.
"""

from __future__ import annotations

from repro.core.base import ScheduleBuilder, register_builder, shuffled_pairs
from repro.core.builders.common import ActionLog
from repro.model.instance import RtspInstance
from repro.model.schedule import Schedule
from repro.util.rng import ensure_rng


@register_builder
class RandomDeletionsFirst(ScheduleBuilder):
    """All deletions (random order), then all transfers (random order)."""

    name = "RDF"

    def build(self, instance: RtspInstance, rng=None) -> Schedule:
        gen = ensure_rng(rng)
        log = ActionLog(instance)
        for server, obj in shuffled_pairs(instance.superfluous(), gen):
            log.delete(server, obj)
        for target, obj in shuffled_pairs(instance.outstanding(), gen):
            log.transfer(target, obj)
        return log.schedule()
