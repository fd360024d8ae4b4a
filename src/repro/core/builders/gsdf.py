"""GSDF — Grouped Server Deletions First (paper §4.1).

RDF's global deletion phase destroys sources long before anyone needs the
space. GSDF localises the damage: servers are visited one at a time (in
random order) and each visit is a contiguous group — first every
superfluous deletion at that server, then every transfer *into* it, each
from the then-nearest source. Servers visited later still hold their full
``X_old`` rows and therefore remain available as sources; only the
already-visited prefix has been reshaped to ``X_new``. Within a group the
deletions always free enough room for the group's transfers, because the
server's post-group load is exactly its ``X_new`` row.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import ScheduleBuilder, register_builder
from repro.core.builders.common import ActionLog
from repro.model.instance import RtspInstance
from repro.model.schedule import Schedule
from repro.util.rng import ensure_rng


@register_builder
class GroupedServerDeletionsFirst(ScheduleBuilder):
    """Per-server groups: delete the server's superfluous replicas, then
    fetch its outstanding ones, then move to the next server."""

    name = "GSDF"

    def build(self, instance: RtspInstance, rng=None) -> Schedule:
        gen = ensure_rng(rng)
        log = ActionLog(instance)
        superfluous = instance.superfluous()
        outstanding = instance.outstanding()
        order = list(range(instance.num_servers))
        gen.shuffle(order)
        for server in order:
            deletions = np.flatnonzero(superfluous[server]).tolist()
            gen.shuffle(deletions)
            for obj in deletions:
                log.delete(server, obj)
            incoming = np.flatnonzero(outstanding[server]).tolist()
            gen.shuffle(incoming)
            for obj in incoming:
                log.transfer(server, obj)
        return log.schedule()
