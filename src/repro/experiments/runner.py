"""Seed-stable execution of figure sweeps.

Each experiment cell ``(workload, x, repetition)`` derives its own seed
from the scale's base seed, so figures sharing a workload key (e.g. the
dummy-count and cost views of the same experiment) run their pipelines on
*identical* instances, and any cell can be reproduced in isolation.

Because every repetition is seeded independently of execution order, the
sweep parallelizes embarrassingly: ``run_figure(..., workers=N)`` fans
the ``(x, repetition)`` grid out over a process pool and reassembles the
results in deterministic order, producing *bit-identical* figures to a
serial run (verified by the test suite).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.metrics import schedule_stats
from repro.core.pipeline import build_pipeline
from repro.experiments.config import ExperimentScale, FigureSpec
from repro.obs.context import current_metrics, current_tracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.shard.pool import WorkQueue
from repro.timing.bandwidth import bandwidths_from_costs
from repro.timing.executor import simulate_parallel
from repro.util.rng import derive_seed


@dataclass(frozen=True)
class CellResult:
    """Aggregated metric for one (x, pipeline) cell."""

    x: float
    pipeline: str
    values: List[float]
    seconds: float

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        return float(np.std(self.values))


@dataclass
class FigureResult:
    """All cells of one figure, plus run metadata.

    ``metrics`` is the merged observability snapshot
    (``rtsp-metrics/1``, see :class:`repro.obs.metrics.MetricsRegistry`)
    when a registry was active during the run — aggregated across *all*
    repetitions, including ones that ran on pool workers — and ``None``
    otherwise.
    """

    spec: FigureSpec
    scale: ExperimentScale
    cells: List[CellResult] = field(default_factory=list)
    seconds: float = 0.0
    metrics: Optional[Dict[str, Any]] = None

    def series(self, pipeline: str) -> List[float]:
        """Mean metric per x value for one pipeline, in x order."""
        by_x = {c.x: c.mean for c in self.cells if c.pipeline == pipeline}
        return [by_x[x] for x in self.spec.x_values]

    def cell(self, x: float, pipeline: str) -> CellResult:
        """Look up one cell."""
        for c in self.cells:
            if c.x == x and c.pipeline == pipeline:
                return c
        raise KeyError((x, pipeline))


def _cell_value(spec: FigureSpec, stats) -> float:
    return (
        float(stats.num_dummy_transfers)
        if spec.metric == "dummy_transfers"
        else stats.cost
    )


def _execute_cell(
    spec: FigureSpec,
    scale: ExperimentScale,
    x: float,
    rep: int,
) -> Dict[str, Tuple[float, float]]:
    """Run every pipeline of one ``(x, repetition)`` cell.

    Seeds are derived exactly as in the serial loop, so the produced
    values are independent of which worker runs the task and when.
    Observability comes from the *ambient* context: the work queue
    installs a fresh registry / tracer fragment per task (merged back in
    deterministic order), so the aggregated stream never depends on
    worker count. Observed cells additionally dry-run each schedule
    through :func:`~repro.timing.executor.simulate_parallel` (an
    obs-only extra pass — it never touches the reported values), so
    executor queue / in-flight samples appear in figure metrics too.
    """
    registry = current_metrics()
    active = current_tracer()
    observed = registry is not None or getattr(active, "enabled", False)
    seed = derive_seed(scale.base_seed, spec.workload_key, scale.name, x, rep)
    run_seed = derive_seed(scale.base_seed, "pipeline", spec.workload_key, x, rep)
    out: Dict[str, Tuple[float, float]] = {}
    with active.span("repetition", figure=spec.figure_id, x=x, rep=rep):
        instance = spec.make_instance(x, scale, seed)
        bandwidths = (
            bandwidths_from_costs(instance.costs) if observed else None
        )
        for name in spec.pipelines:
            t0 = time.perf_counter()
            with active.span("cell", pipeline=name):
                schedule = build_pipeline(name).run(instance, rng=run_seed)
            stats = schedule_stats(schedule, instance)
            out[name] = (_cell_value(spec, stats), time.perf_counter() - t0)
            if bandwidths is not None:
                with active.span("simulate", pipeline=name):
                    sim = simulate_parallel(schedule, instance, bandwidths)
                    active.annotate(makespan=sim.makespan)
    return out


def _cell_task(
    context: Tuple[FigureSpec, ExperimentScale], task: Tuple[float, int]
):
    """Work-queue task: one ``(x, repetition)`` cell."""
    spec, scale = context
    x, rep = task
    return x, rep, _execute_cell(spec, scale, x, rep)


def _run_figure_tasks(
    spec: FigureSpec,
    scale: ExperimentScale,
    reps: int,
    progress: Optional[Callable[[str], None]],
    workers: int,
    metrics: Optional[MetricsRegistry],
    tracer: Optional[Tracer],
) -> FigureResult:
    """Run the ``(x, repetition)`` grid as independent cell tasks.

    ``workers > 1`` fans out over the shared fork work queue
    (:class:`repro.shard.pool.WorkQueue`); otherwise the tasks run
    in-process, in the same order. Either way, observability fragments
    are merged in deterministic task order, so counter totals and the
    logical trace stream are identical for any worker count. Platforms
    without ``fork`` degrade to serial execution with a
    :class:`RuntimeWarning` and a ``progress`` line.
    """
    result = FigureResult(spec=spec, scale=scale)
    t_start = time.perf_counter()
    tasks = [(x, rep) for x in spec.x_values for rep in range(reps)]
    queue = WorkQueue(workers=workers, progress=progress)
    outputs = queue.run(
        _cell_task,
        tasks,
        context=(spec, scale),
        metrics=metrics,
        tracer=tracer,
    )
    by_cell: Dict[Tuple[float, int], Dict[str, Tuple[float, float]]] = {}
    for x, rep, out in outputs:
        by_cell[(x, rep)] = out
    # Reassemble in the serial loop's deterministic order.
    for x in spec.x_values:
        for name in spec.pipelines:
            samples = [by_cell[(x, rep)][name] for rep in range(reps)]
            cell = CellResult(
                x=x,
                pipeline=name,
                values=[value for value, _ in samples],
                seconds=sum(dt for _, dt in samples),
            )
            result.cells.append(cell)
            if progress is not None:
                progress(
                    f"{spec.figure_id} x={x:g} {name}: "
                    f"mean={cell.mean:.6g} ({cell.seconds:.1f}s)"
                )
    result.seconds = time.perf_counter() - t_start
    if metrics is not None:
        result.metrics = metrics.snapshot()
    return result


def run_figure(
    spec: FigureSpec,
    scale: ExperimentScale,
    repetitions: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    workers: Optional[int] = None,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> FigureResult:
    """Run every cell of ``spec`` at ``scale``.

    ``repetitions`` overrides the scale's default; ``progress`` (if given)
    receives one human-readable line per completed cell. ``workers`` > 1
    distributes repetitions over a process pool; results are bit-identical
    to a serial run because every cell's seed is position-derived. On
    platforms without the ``fork`` start method the runner falls back to
    serial execution, emitting a :class:`RuntimeWarning` and a ``progress``
    line so the degradation is visible.

    ``metrics`` / ``tracer`` default to the active observability context
    (:func:`~repro.obs.context.current_metrics` /
    :func:`~repro.obs.context.current_tracer`). When either is live, every
    repetition records into its own fragment — also on pool workers, whose
    snapshots used to be dropped — and the merged totals land in
    ``FigureResult.metrics`` / the tracer, identically for any ``workers``
    value.
    """
    reps = repetitions if repetitions is not None else scale.repetitions
    if metrics is None:
        metrics = current_metrics()
    if tracer is None:
        active = current_tracer()
        tracer = active if getattr(active, "enabled", False) else None
    elif not getattr(tracer, "enabled", False):
        tracer = None
    obs_active = metrics is not None or tracer is not None
    if workers is not None and workers > 1:
        # The work queue owns the spawn-only fallback: without a usable
        # ``fork`` start method it warns ("falling back to serial"),
        # tells ``progress``, and runs the same tasks in-process.
        return _run_figure_tasks(
            spec, scale, reps, progress, workers, metrics, tracer
        )
    if obs_active:
        # Same task loop as the pool path, run in-process: fragments merge
        # in the same order, so totals match any workers value exactly.
        return _run_figure_tasks(spec, scale, reps, progress, 1, metrics, tracer)
    pipelines = {name: build_pipeline(name) for name in spec.pipelines}
    result = FigureResult(spec=spec, scale=scale)
    t_start = time.perf_counter()
    for x in spec.x_values:
        # Instances are shared across pipelines within a cell (the paper
        # compares algorithms on the same runs) and across figures with
        # the same workload key.
        instances = []
        for rep in range(reps):
            seed = derive_seed(
                scale.base_seed, spec.workload_key, scale.name, x, rep
            )
            instances.append(spec.make_instance(x, scale, seed))
        for name, pipeline in pipelines.items():
            t0 = time.perf_counter()
            values: List[float] = []
            for rep, instance in enumerate(instances):
                run_seed = derive_seed(
                    scale.base_seed, "pipeline", spec.workload_key, x, rep
                )
                schedule = pipeline.run(instance, rng=run_seed)
                stats = schedule_stats(schedule, instance)
                values.append(
                    float(stats.num_dummy_transfers)
                    if spec.metric == "dummy_transfers"
                    else stats.cost
                )
            cell = CellResult(
                x=x, pipeline=name, values=values,
                seconds=time.perf_counter() - t0,
            )
            result.cells.append(cell)
            if progress is not None:
                progress(
                    f"{spec.figure_id} x={x:g} {name}: "
                    f"mean={cell.mean:.6g} ({cell.seconds:.1f}s)"
                )
    result.seconds = time.perf_counter() - t_start
    return result
