"""Extracting a plannable sub-instance for one shard part.

A :class:`SubInstance` bundles the local :class:`~repro.model.instance.
RtspInstance` for a :class:`~repro.shard.partition.ShardPart` with the
index maps needed to lift its schedule back into global coordinates.
Local server ``i`` is ``part.servers[i]``, local object ``k`` is
``part.objects[k]``, and the local dummy index maps to the global one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.model.actions import Transfer
from repro.model.instance import RtspInstance
from repro.model.schedule import KIND_DELETE, KIND_TRANSFER, Schedule
from repro.shard.mmapcost import CostMatrixStore
from repro.shard.partition import ShardPart
from repro.util.errors import ConfigurationError, InfeasibleInstanceError

__all__ = ["SubInstance", "extract_subinstance"]

Columns = Tuple[List[int], List[int], List[int], List[int]]


@dataclass(frozen=True)
class SubInstance:
    """A shard's local instance plus its global index maps."""

    instance: RtspInstance
    servers: Tuple[int, ...]
    objects: Tuple[int, ...]
    global_dummy: int

    def globalize(self, schedule: Schedule) -> Columns:
        """Map a local schedule to global flat action columns.

        Returns ``(kinds, primary, objs, sources)`` lists of plain ints
        in the global index space, ready for
        :meth:`repro.model.schedule.Schedule.from_arrays` (directly or
        concatenated with other shards' columns).
        """
        server_map = np.asarray(
            self.servers + (self.global_dummy,), dtype=np.int64
        )
        object_map = np.asarray(self.objects, dtype=np.int64)
        kinds, primary, objs, sources = _local_columns(schedule)
        kind_arr = np.asarray(kinds, dtype=np.int64)
        primary_arr = server_map[np.asarray(primary, dtype=np.int64)]
        obj_arr = object_map[np.asarray(objs, dtype=np.int64)]
        source_local = np.asarray(sources, dtype=np.int64)
        # Deletions carry source 0; keep them 0 globally rather than
        # remapping a meaningless field.
        source_arr = np.where(
            kind_arr == KIND_TRANSFER, server_map[source_local], 0
        )
        return (
            kind_arr.tolist(),
            primary_arr.tolist(),
            obj_arr.tolist(),
            source_arr.tolist(),
        )


def _local_columns(schedule: Schedule) -> Columns:
    """Flat ``(kinds, primary, objs, sources)`` columns of ``schedule``."""
    kinds: List[int] = []
    primary: List[int] = []
    objs: List[int] = []
    sources: List[int] = []
    for action in schedule:
        if isinstance(action, Transfer):
            kinds.append(KIND_TRANSFER)
            primary.append(action.target)
            objs.append(action.obj)
            sources.append(action.source)
        else:
            kinds.append(KIND_DELETE)
            primary.append(action.server)
            objs.append(action.obj)
            sources.append(0)
    return kinds, primary, objs, sources


def extract_subinstance(
    instance: RtspInstance,
    part: ShardPart,
    capacities: Optional[Sequence[float]] = None,
    cost_store: Optional[CostMatrixStore] = None,
) -> SubInstance:
    """Build the local instance for ``part``.

    The extended cost matrix is sliced to the part's servers plus the
    dummy (through ``cost_store`` when given, so fleet-scale matrices
    are read from their memmap instead of RAM); placements are the
    part's ``servers x objects`` rectangle of ``X_old``/``X_new``.
    ``capacities`` overrides the per-server budgets (the object-family
    partitioner's sequential split); an infeasible override is reported
    as :class:`~repro.util.errors.ConfigurationError` naming the part.
    """
    if not part.servers:
        raise ConfigurationError("cannot extract a part with no servers")
    servers = np.asarray(part.servers, dtype=np.intp)
    objects = np.asarray(part.objects, dtype=np.intp)
    extended = list(part.servers) + [instance.dummy]
    if cost_store is not None:
        costs = cost_store.slice(extended)
    else:
        idx = np.asarray(extended, dtype=np.intp)
        costs = np.asarray(instance.costs[np.ix_(idx, idx)], dtype=np.float64)
    caps = (
        np.asarray(instance.capacities, dtype=np.float64)[servers]
        if capacities is None
        else np.asarray(capacities, dtype=np.float64)[servers]
    )
    if objects.size:
        grid = np.ix_(servers, objects)
        x_old = np.ascontiguousarray(instance.x_old[grid])
        x_new = np.ascontiguousarray(instance.x_new[grid])
        sizes = np.asarray(instance.sizes, dtype=np.float64)[objects]
    else:
        x_old = np.zeros((servers.size, 0), dtype=instance.x_old.dtype)
        x_new = np.zeros((servers.size, 0), dtype=instance.x_new.dtype)
        sizes = np.zeros(0, dtype=np.float64)
    try:
        local = RtspInstance.create(
            sizes=sizes,
            capacities=caps,
            costs=costs,
            x_old=x_old,
            x_new=x_new,
        )
    except InfeasibleInstanceError as exc:
        raise ConfigurationError(
            f"shard part {part.key} is infeasible under its capacity "
            f"split: {exc}; use fewer parts or the component partitioner"
        ) from exc
    return SubInstance(
        instance=local,
        servers=part.servers,
        objects=part.objects,
        global_dummy=instance.dummy,
    )
