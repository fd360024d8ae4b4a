"""Sharded planning: partition, plan in parallel, stitch, verify.

:func:`plan_sharded` is the fleet-scale entry point: it partitions an
instance (connected components of the placement interaction graph by
default), plans every part independently with the requested builder or
pipeline, stitches the per-part schedules into one global
:class:`~repro.model.schedule.Schedule`, and runs the independent
invariant oracle (:func:`repro.exact.validate.check_invariants`) over
the stitched result.

Determinism contract
--------------------
* The stitched schedule is **byte-identical for every** ``shards`` and
  ``workers`` value: parts are the planning unit (bins only group work
  for the pool), each part's seed is derived from the caller's seed and
  the part's stable key, and parts are stitched in canonical order.
* When the partition has a **single part** (connected instances — the
  common case) the planner runs the builder directly on the original
  instance with the caller's ``rng``, so the result is byte-identical
  to unsharded planning.
* When the partition is **exact** (disconnected components), each
  part's slice of the stitched schedule is byte-identical to unsharded
  planning of that part's sub-instance, and no transfer loses a source
  to the shard boundary (zero cross-shard dummies).
* Inexact partitions (zone cuts, object families) still stitch into a
  valid schedule; targets whose only sources live in another shard pull
  from the dummy server, and that surcharge is reported per shard as
  ``cross_shard_dummies``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.quality import plan_quality, record_plan_quality
from repro.core.base import ScheduleBuilder
from repro.core.pipeline import Pipeline, build_pipeline
from repro.model.instance import RtspInstance
from repro.model.schedule import KIND_TRANSFER, Schedule
from repro.obs.context import current_metrics, current_tracer
from repro.shard.mmapcost import CostMatrixStore
from repro.shard.partition import (
    Partition,
    PartitionerSpec,
    pack_parts,
    resolve_partition,
)
from repro.shard.pool import WorkQueue
from repro.shard.subinstance import SubInstance, extract_subinstance
from repro.util.errors import ConfigurationError, InvalidScheduleError
from repro.util.rng import derive_seed

__all__ = ["ShardStats", "ShardedPlan", "plan_sharded"]


@dataclass(frozen=True)
class ShardStats:
    """Accounting for one planned part.

    ``cross_shard_dummies`` counts transfers that had to source from the
    dummy server *because of the shard boundary*: the object has no old
    holder inside the part but does have one globally. Dummy transfers
    the unsharded planner would also need (objects with no old holder
    anywhere) are excluded.
    """

    index: int
    key: Tuple[int, int]
    num_servers: int
    num_objects: int
    num_actions: int
    cost: float
    dummy_transfers: int
    cross_shard_dummies: int
    seconds: float


@dataclass
class ShardedPlan:
    """Everything :func:`plan_sharded` produced."""

    schedule: Schedule
    partition: Partition
    shards: List[List[int]]
    stats: List[ShardStats]
    invariant_report: Optional[Any]
    seconds: float

    @property
    def cost(self) -> float:
        """Implementation cost of the stitched schedule."""
        return self._cost

    @property
    def num_actions(self) -> int:
        return len(self.schedule)

    @property
    def dummy_transfers(self) -> int:
        return sum(stat.dummy_transfers for stat in self.stats)

    @property
    def cross_shard_dummies(self) -> int:
        return sum(stat.cross_shard_dummies for stat in self.stats)

    _cost: float = 0.0


def _as_pipeline(builder: Union[str, ScheduleBuilder, Pipeline]) -> Pipeline:
    """Normalise the ``builder`` argument into a :class:`Pipeline`."""
    if isinstance(builder, Pipeline):
        return builder
    if isinstance(builder, ScheduleBuilder):
        return Pipeline(builder)
    if isinstance(builder, str):
        return build_pipeline(builder)
    raise ConfigurationError(
        "builder must be a pipeline spec string, a ScheduleBuilder, or a "
        f"Pipeline, got {type(builder).__name__}"
    )


Columns = Tuple[List[int], List[int], List[int], List[int]]
PartResult = Tuple[int, Columns, ShardStats]

#: Context tuple threaded through the work queue to `_plan_bin`.
_BinContext = Tuple[
    RtspInstance, Partition, Pipeline, int, Optional[CostMatrixStore], Any
]


def _part_seed(seed: int, key: Tuple[int, int]) -> int:
    """The derived seed planning part ``key`` under base ``seed``."""
    return derive_seed(seed, "shard", key)


def _plan_part(
    instance: RtspInstance,
    partition: Partition,
    pipeline: Pipeline,
    seed: int,
    index: int,
    cost_store: Optional[CostMatrixStore],
    global_has_source: np.ndarray,
) -> PartResult:
    """Plan one part on its sub-instance and return global columns."""
    part = partition.parts[index]
    tracer = current_tracer()
    t0 = time.perf_counter()
    with tracer.span("shard.plan", part=index, servers=len(part.servers)):
        sub = extract_subinstance(
            instance,
            part,
            capacities=partition.part_capacities(index),
            cost_store=cost_store,
        )
        schedule = pipeline.run(
            sub.instance, rng=_part_seed(seed, part.key)
        )
        stats = _part_stats(sub, schedule, index, global_has_source)
        columns = sub.globalize(schedule)
    seconds = time.perf_counter() - t0
    registry = current_metrics()
    if registry is not None:
        registry.counter("shard.parts_planned").inc()
        registry.counter("shard.cross_dummies").inc(
            stats.cross_shard_dummies
        )
        registry.histogram("shard.plan.seconds").observe(seconds)
    # Per-shard completion heartbeat: recorded into the worker's
    # fragment, merged in task order, so the trace is identical for any
    # worker count.
    tracer.event(
        "shard.part",
        part=index,
        servers=stats.num_servers,
        actions=stats.num_actions,
        cost=stats.cost,
        cross_shard_dummies=stats.cross_shard_dummies,
    )
    return (
        index,
        columns,
        ShardStats(
            index=stats.index,
            key=stats.key,
            num_servers=stats.num_servers,
            num_objects=stats.num_objects,
            num_actions=stats.num_actions,
            cost=stats.cost,
            dummy_transfers=stats.dummy_transfers,
            cross_shard_dummies=stats.cross_shard_dummies,
            seconds=seconds,
        ),
    )


def _part_stats(
    sub: SubInstance,
    schedule: Schedule,
    index: int,
    global_has_source: np.ndarray,
) -> ShardStats:
    """Local accounting for one planned part (seconds filled by caller)."""
    local = sub.instance
    dummy = local.dummy
    cost = schedule.cost(local)
    local_has_source = local.x_old.any(axis=0)
    dummies = 0
    cross = 0
    from repro.model.actions import Transfer

    for action in schedule:
        if isinstance(action, Transfer) and action.source == dummy:
            dummies += 1
            obj = action.obj
            if not local_has_source[obj] and global_has_source[
                sub.objects[obj]
            ]:
                cross += 1
    return ShardStats(
        index=index,
        key=(sub.servers[0], sub.objects[0] if sub.objects else -1),
        num_servers=len(sub.servers),
        num_objects=len(sub.objects),
        num_actions=len(schedule),
        cost=cost,
        dummy_transfers=dummies,
        cross_shard_dummies=cross,
        seconds=0.0,
    )


def _plan_bin(context: _BinContext, bin_indices: List[int]) -> List[PartResult]:
    """Work-queue task: plan every part of one shard bin, in order."""
    instance, partition, pipeline, seed, cost_store, has_source = context
    return [
        _plan_part(
            instance, partition, pipeline, seed, index, cost_store, has_source
        )
        for index in bin_indices
    ]


def plan_sharded(
    instance: RtspInstance,
    builder: Union[str, ScheduleBuilder, Pipeline] = "GOLCF",
    shards: Optional[int] = None,
    workers: int = 1,
    partitioner: PartitionerSpec = "components",
    rng: Optional[int] = 0,
    validate: bool = True,
    mmap_costs: object = "auto",
    progress: Optional[Any] = None,
) -> ShardedPlan:
    """Partition ``instance``, plan the parts in parallel, stitch, verify.

    Parameters
    ----------
    builder:
        Pipeline spec string (``"GOLCF+H1+H2+OP1"``), a
        :class:`~repro.core.base.ScheduleBuilder`, or a ready
        :class:`~repro.core.pipeline.Pipeline`.
    shards:
        Maximum number of parallel work units; parts are bin-packed into
        at most this many bins by estimated work. Never changes the
        stitched schedule. ``None``: one bin per part.
    workers:
        Pool processes; falls back to serial (loudly) without ``fork``.
    partitioner:
        ``"components"`` (default), a :class:`~repro.shard.partition.
        Partition`, or a callable — see :mod:`repro.shard.partition`.
    rng:
        Integer base seed (``None`` means 0). Multi-part planning
        derives one stream per part, so a generator object is rejected:
        its state could not be split deterministically.
    validate:
        Run :func:`repro.exact.validate.check_invariants` over the
        stitched schedule and raise
        :class:`~repro.util.errors.InvalidScheduleError` on violations.
    mmap_costs:
        ``"auto"`` (default) spills the extended cost matrix to a
        memory-mapped file once it crosses
        :data:`~repro.shard.mmapcost.MMAP_DEFAULT_BYTES`, so shard
        extraction reads only its own rows; ``True``/``False`` force.
    """
    pipeline = _as_pipeline(builder)
    partition = resolve_partition(instance, partitioner)
    tracer = current_tracer()
    registry = current_metrics()

    with tracer.span(
        "plan_sharded", parts=len(partition.parts), workers=int(workers)
    ):
        # Events deliberately omit the worker count: they describe the
        # *plan*, which is byte-identical for any pool size, so their
        # logical records must be too. The span records the execution
        # config instead.
        tracer.event(
            "plan.start",
            parts=len(partition.parts),
            shards=0 if shards is None else int(shards),
        )
        plan = _plan_partitioned(
            instance,
            pipeline,
            partition,
            shards,
            workers,
            rng,
            validate,
            mmap_costs,
            progress,
            tracer,
            registry,
        )
        quality = plan_quality(
            instance,
            plan.schedule,
            cost=plan.cost,
            partition=partition,
            bins=plan.shards,
        )
        record_plan_quality(quality, registry)
        finite_gap = quality.cost_gap != float("inf")
        tracer.annotate(
            cost=plan.cost,
            cost_gap=quality.cost_gap if finite_gap else -1.0,
            dummy_traffic_ratio=quality.dummy_traffic_ratio,
            lpt_imbalance=quality.lpt_imbalance,
        )
        tracer.event(
            "plan.done",
            parts=len(partition.parts),
            actions=plan.num_actions,
            cost=plan.cost,
            cost_gap=quality.cost_gap if finite_gap else -1.0,
            dummy_traffic_ratio=quality.dummy_traffic_ratio,
            lpt_imbalance=quality.lpt_imbalance,
        )
    return plan


def _plan_partitioned(
    instance: RtspInstance,
    pipeline: Pipeline,
    partition: Partition,
    shards: Optional[int],
    workers: int,
    rng: Optional[int],
    validate: bool,
    mmap_costs: object,
    progress: Optional[Any],
    tracer: Any,
    registry: Any,
) -> ShardedPlan:
    """Plan a resolved partition (the body under the ``plan_sharded`` span)."""
    t_start = time.perf_counter()

    if len(partition.parts) <= 1:
        # Single part: plan the original instance with the caller's rng,
        # byte-identical to unsharded planning.
        with tracer.span("shard.plan", part=0, servers=instance.num_servers):
            schedule = pipeline.run(instance, rng=rng)
        report = _verify(instance, schedule, validate, tracer)
        stats = [
            ShardStats(
                index=0,
                key=(0, 0),
                num_servers=instance.num_servers,
                num_objects=instance.num_objects,
                num_actions=len(schedule),
                cost=schedule.cost(instance),
                dummy_transfers=schedule.count_dummy_transfers(instance),
                cross_shard_dummies=0,
                seconds=time.perf_counter() - t_start,
            )
        ]
        return ShardedPlan(
            schedule=schedule,
            partition=partition,
            shards=[[0]] if partition.parts else [],
            stats=stats,
            invariant_report=report,
            seconds=time.perf_counter() - t_start,
            _cost=stats[0].cost,
        )

    if rng is None:
        seed = 0
    elif isinstance(rng, (int, np.integer)):
        seed = int(rng)
    else:
        raise ConfigurationError(
            "plan_sharded needs an integer seed (or None) for multi-part "
            "instances; per-part streams are derived from it"
        )

    bins = pack_parts(partition, shards)
    store = CostMatrixStore.from_matrix(instance.costs, spill=mmap_costs)
    has_source = instance.x_old.any(axis=0)
    context: _BinContext = (
        instance, partition, pipeline, seed, store, has_source,
    )
    queue = WorkQueue(workers=workers, progress=progress)
    try:
        with tracer.span("shard.pool", bins=len(bins), workers=workers):
            bin_results = queue.run(
                _plan_bin,
                bins,
                context=context,
                metrics=registry,
                tracer=tracer,
            )
    finally:
        store.close()

    results: List[PartResult] = [
        result for bin_result in bin_results for result in bin_result
    ]
    results.sort(key=lambda item: item[0])

    kinds: List[int] = []
    primary: List[int] = []
    objs: List[int] = []
    sources: List[int] = []
    stats = []
    for _, columns, stat in results:
        kinds.extend(columns[0])
        primary.extend(columns[1])
        objs.extend(columns[2])
        sources.extend(columns[3])
        stats.append(stat)
        if progress is not None:
            progress(
                f"shard {stat.index}: {stat.num_servers} servers, "
                f"{stat.num_actions} actions, cost={stat.cost:.6g}, "
                f"cross-shard dummies={stat.cross_shard_dummies}"
            )
    tracer.event("plan.stitch", parts=len(results), actions=len(kinds))
    schedule = Schedule.from_arrays(kinds, primary, objs, sources)
    report = _verify(instance, schedule, validate, tracer)
    if registry is not None:
        registry.counter("shard.plans").inc()
    return ShardedPlan(
        schedule=schedule,
        partition=partition,
        shards=bins,
        stats=stats,
        invariant_report=report,
        seconds=time.perf_counter() - t_start,
        _cost=_stitched_cost(instance, kinds, primary, objs, sources),
    )


def _stitched_cost(
    instance: RtspInstance,
    kinds: Sequence[int],
    primary: Sequence[int],
    objs: Sequence[int],
    sources: Sequence[int],
) -> float:
    """Left-to-right implementation cost of the stitched columns."""
    kind_arr = np.asarray(kinds, dtype=np.int64)
    mask = kind_arr == KIND_TRANSFER
    if not mask.any():
        return 0.0
    target_arr = np.asarray(primary, dtype=np.intp)[mask]
    obj_arr = np.asarray(objs, dtype=np.intp)[mask]
    source_arr = np.asarray(sources, dtype=np.intp)[mask]
    terms = instance.sizes[obj_arr] * instance.costs[target_arr, source_arr]
    total = 0.0
    for term in terms.tolist():
        total += term
    return total


def _verify(
    instance: RtspInstance,
    schedule: Schedule,
    validate: bool,
    tracer: Any,
) -> Optional[Any]:
    """Run the strict invariant oracle over the stitched schedule.

    On violation, records an ``invariant.violation`` event before
    re-raising, so a flight-recorder dump of the crash names it.
    """
    if not validate:
        return None
    from repro.exact.validate import assert_invariants

    try:
        return assert_invariants(
            instance, schedule, context="plan_sharded stitch"
        )
    except InvalidScheduleError as exc:
        tracer.event(
            "invariant.violation", context="plan_sharded stitch", error=str(exc)
        )
        raise
