"""Pipelines: builder + optimizer chains, e.g. ``GOLCF+H1+H2+OP1``.

The paper's plots are all pipelines in this sense — a schedule builder
followed by zero or more optimizers applied in order. The winning
combination (§6) is ``GOLCF+H1+H2+OP1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.base import (
    ScheduleBuilder,
    ScheduleOptimizer,
    get_builder,
    get_optimizer,
)
from repro.model.actions import Transfer
from repro.model.instance import RtspInstance
from repro.model.residual import is_residual_trivial, residual_instance
from repro.model.schedule import Schedule
from repro.obs.context import current_metrics, current_tracer
from repro.obs.profile import StageProfiler
from repro.util.errors import ConfigurationError, InvalidScheduleError
from repro.util.rng import ensure_rng


@dataclass(frozen=True)
class StageResult:
    """Metrics of the schedule after one pipeline stage.

    ``counters`` holds the observability counters this stage bumped
    (post-stage minus pre-stage registry values) — empty when no
    :class:`~repro.obs.metrics.MetricsRegistry` is active.
    """

    stage: str
    cost: float
    dummy_transfers: int
    num_actions: int
    seconds: float
    counters: Mapping[str, int] = field(default_factory=dict)


class Pipeline:
    """A builder followed by optimizers, applied left to right.

    ``validate`` installs a per-stage check on every schedule the
    pipeline produces: ``"basic"``/``True`` replays through the model
    layer, ``"strict"`` runs the independent invariant oracle from
    :mod:`repro.exact.validate`, and a callable ``(instance, schedule)``
    is used as-is. Validation failures raise
    :class:`~repro.util.errors.InvalidScheduleError` naming the stage.
    """

    def __init__(
        self,
        builder: ScheduleBuilder,
        optimizers: Sequence[ScheduleOptimizer] = (),
        name: Optional[str] = None,
        validate=None,
    ) -> None:
        self.builder = builder
        self.optimizers = list(optimizers)
        self.name = name or "+".join(
            [builder.name] + [o.name for o in self.optimizers]
        )
        # Lazy import: repro.exact depends on repro.core at module level,
        # so core must only reach back into it at call time.
        from repro.exact.validate import resolve_validator

        self.validator = resolve_validator(validate)

    def run(self, instance: RtspInstance, rng=None) -> Schedule:
        """Build and optimize; returns the final schedule."""
        schedule, _ = self.run_with_stats(instance, rng=rng)
        return schedule

    def run_with_stats(
        self, instance: RtspInstance, rng=None, tracer=None
    ) -> Tuple[Schedule, List[StageResult]]:
        """Like :meth:`run` but also records per-stage metrics and timing.

        ``tracer`` defaults to the active one (see
        :func:`repro.obs.context.current_tracer`); each stage runs inside a
        ``"stage"`` span annotated with the schedule metrics, and — when a
        metrics registry is active — its counter deltas land both on the
        returned :class:`StageResult` and in ``stage.<name>.seconds``
        histograms.
        """
        gen = ensure_rng(rng)
        if tracer is None:
            tracer = current_tracer()
        registry = current_metrics()
        watch = StageProfiler()
        stats: List[StageResult] = []
        with tracer.span("pipeline", pipeline=self.name):
            schedule = None
            for stage in [self.builder] + self.optimizers:
                with tracer.span("stage", stage=stage.name):
                    before = (
                        registry.counter_values()
                        if registry is not None
                        else None
                    )
                    with watch.stage(stage.name):
                        if schedule is None:
                            schedule = stage.build(instance, rng=gen)
                        else:
                            schedule = stage.optimize(
                                instance, schedule, rng=gen
                            )
                    self._check(instance, schedule, stage.name)
                    result = self._stage_result(
                        stage.name, schedule, instance, watch, registry, before
                    )
                    tracer.annotate(
                        cost=result.cost,
                        dummy_transfers=result.dummy_transfers,
                        num_actions=result.num_actions,
                    )
                stats.append(result)
        return schedule, stats

    def replan(self, instance: RtspInstance, placement, rng=None) -> Schedule:
        """Re-plan the remainder of a transition from a mid-flight state.

        ``placement`` is the current replication matrix of a partially
        executed (possibly fault-mutated) system. The pipeline runs on the
        residual instance ``placement -> X_new``; the returned schedule is
        valid against that residual, i.e. applying it to the mid-flight
        state reaches ``instance.x_new``. Used by
        :class:`repro.robust.RepairEngine` after every detected failure.

        A trivial residual (``placement`` already equals ``X_new``)
        short-circuits to an empty schedule without invoking any stage:
        builders are entitled to assume there is work to do, and a
        repair round whose fault wiped only already-superfluous replicas
        must not pay (or crash in) a full pipeline run.
        """
        residual = residual_instance(instance, placement)
        if is_residual_trivial(residual):
            return Schedule()
        return self.run(residual, rng=rng)

    def _check(
        self, instance: RtspInstance, schedule: Schedule, stage: str
    ) -> None:
        if self.validator is None:
            return
        try:
            self.validator(instance, schedule)
        except InvalidScheduleError as exc:
            raise InvalidScheduleError(
                f"pipeline {self.name!r}, stage {stage!r}: {exc}",
                position=exc.position,
            ) from exc

    @staticmethod
    def _stage_result(
        stage: str,
        schedule: Schedule,
        instance: RtspInstance,
        watch: StageProfiler,
        registry=None,
        before: Optional[Dict[str, int]] = None,
    ) -> StageResult:
        seconds = watch.laps.get(stage, 0.0)
        counters: Dict[str, int] = {}
        if registry is not None:
            base = before or {}
            counters = {
                name: delta
                for name, value in registry.counter_values().items()
                if (delta := value - base.get(name, 0))
            }
            registry.histogram(f"stage.{stage}.seconds").observe(seconds)
        cost, dummy_transfers = _cost_and_dummies(schedule, instance)
        return StageResult(
            stage=stage,
            cost=cost,
            dummy_transfers=dummy_transfers,
            num_actions=len(schedule),
            seconds=seconds,
            counters=counters,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Pipeline({self.name!r})"


def _cost_and_dummies(
    schedule: Schedule, instance: RtspInstance
) -> Tuple[float, int]:
    """``schedule.cost(instance)`` and its dummy-transfer count in one pass.

    Same products, summed in the same order, so the cost is bit-identical
    to :meth:`~repro.model.schedule.Schedule.cost`; Python float reads
    replace its per-transfer numpy scalar arithmetic.
    """
    sizes, cost_of = instance.sizes.tolist(), instance.costs.item
    dummy = instance.dummy
    total, dummies = 0.0, 0
    for a in schedule:
        if isinstance(a, Transfer):
            total += sizes[a.obj] * cost_of(a.target, a.source)
            if a.source == dummy:
                dummies += 1
    return total, dummies


def build_pipeline(spec: str, validate=None) -> Pipeline:
    """Parse a ``BUILDER+OPT1+OPT2`` spec into a :class:`Pipeline`.

    The first component must name a registered builder, the remaining
    components registered optimizers, e.g. ``"GOLCF+H1+H2+OP1"``.
    ``validate`` is forwarded to :class:`Pipeline` (``"basic"``,
    ``"strict"``, or a callable) to check every stage's output.
    """
    parts = [part.strip() for part in spec.split("+") if part.strip()]
    if not parts:
        raise ConfigurationError("empty pipeline spec")
    builder = get_builder(parts[0])
    optimizers = [get_optimizer(p) for p in parts[1:]]
    return Pipeline(builder, optimizers, name="+".join(parts), validate=validate)


#: The pipeline line-up used across the paper's figures.
PAPER_PIPELINES: Dict[str, str] = {
    "AR": "AR",
    "GOLCF": "GOLCF",
    "RDF": "RDF",
    "GSDF": "GSDF",
    "AR+H1+H2": "AR+H1+H2",
    "GOLCF+H1": "GOLCF+H1",
    "GOLCF+H2": "GOLCF+H2",
    "GOLCF+H1+H2": "GOLCF+H1+H2",
    "GOLCF+OP1": "GOLCF+OP1",
    "GOLCF+H1+H2+OP1": "GOLCF+H1+H2+OP1",
}
