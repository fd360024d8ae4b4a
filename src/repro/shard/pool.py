"""A reusable deterministic fork-pool work queue.

Generalises the process pool that :func:`repro.experiments.runner.
run_figure` grew for figure sweeps into a component every fan-out in the
library shares (figure repetitions, shard planning):

* tasks are mapped over a fork-based :class:`~concurrent.futures.
  ProcessPoolExecutor`, with results returned in **input order** so any
  downstream merge is independent of scheduling;
* the callable and its context are installed in a module global just
  before the pool starts (fork workers inherit them), so closures over
  non-picklable state never cross a pickle boundary;
* when an observability registry/tracer is supplied, every task records
  into *fresh* fragments whose snapshots are merged back in task order —
  counter totals and the logical trace (spans and events) are identical
  for any worker count;
* when the supplied tracer has an open span (e.g. ``plan_sharded``'s
  ``shard.pool`` span), adopted worker fragments are re-parented under
  it, so cross-process spans nest in the merged tree instead of
  becoming disconnected roots;
* platforms without the ``fork`` start method (or with it monkeypatched
  away) degrade to serial execution with a :class:`RuntimeWarning` and
  a ``progress`` line, never an exception — the PR 3 serial-fallback
  contract, now honoured on spawn-only platforms too.
"""

from __future__ import annotations

import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.obs.context import observed
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = ["WorkQueue", "fork_available"]


def fork_available() -> bool:
    """Whether the ``fork`` start method can actually be used.

    Consults :func:`multiprocessing.get_all_start_methods` (spawn-only
    platforms such as Windows — and tests that monkeypatch it — report
    no ``fork``) and then confirms :func:`multiprocessing.get_context`
    agrees, so both discovery paths stay honest.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return False
    try:
        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform-specific
        return False
    return True


#: Installed immediately before the pool forks; inherited by workers so
#: the task function and its context never need to be pickled.
_WORKER_STATE: Optional[Tuple[Callable[..., Any], Any, bool, bool]] = None

TaskOutput = Tuple[Any, Optional[dict], Optional[Tracer]]


def _run_one(task: Any) -> TaskOutput:
    """Execute one task under :data:`_WORKER_STATE` with fresh fragments."""
    assert _WORKER_STATE is not None, "WorkQueue worker state not installed"
    fn, context, want_metrics, want_trace = _WORKER_STATE
    registry = MetricsRegistry() if want_metrics else None
    tracer = Tracer() if want_trace else None
    with observed(tracer=tracer, metrics=registry):
        result = fn(context, task)
    return (
        result,
        registry.snapshot() if registry is not None else None,
        tracer,
    )


class WorkQueue:
    """Deterministic map over tasks, parallel when the platform allows.

    ``workers <= 1`` always runs serially; ``workers > 1`` uses a
    fork-based process pool, or falls back to serial execution (with a
    :class:`RuntimeWarning` and an optional ``progress`` line) when
    ``fork`` is unavailable. Results, observability merges, and
    therefore every downstream artifact are byte-identical for any
    worker count.
    """

    def __init__(
        self,
        workers: int = 1,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.workers = max(int(workers), 1)
        self.progress = progress

    def run(
        self,
        fn: Callable[[Any, Any], Any],
        tasks: Sequence[Any],
        context: Any = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> List[Any]:
        """Map ``fn(context, task)`` over ``tasks`` in input order.

        ``fn`` must be a module-level callable (workers resolve it
        through the inherited module state, not a pickle). When
        ``metrics``/``tracer`` are supplied, each task runs
        inside a fresh fragment — also on the serial path, so totals
        never depend on the worker count — and the fragments are merged
        into the supplied instruments in task order. Trace fragments
        are re-parented under the tracer's innermost open span (if
        any), so worker spans nest under the coordinating span in the
        merged tree.
        """
        global _WORKER_STATE
        tasks = list(tasks)
        if not tasks:
            return []
        want_metrics = metrics is not None
        if tracer is not None and not tracer.enabled:
            tracer = None
        state = (fn, context, want_metrics, tracer is not None)
        workers = min(self.workers, len(tasks))
        if workers > 1 and not fork_available():
            message = (
                f"WorkQueue(workers={workers}): the 'fork' start method is "
                "unavailable on this platform; falling back to serial "
                "execution"
            )
            warnings.warn(message, RuntimeWarning, stacklevel=3)
            if self.progress is not None:
                self.progress(message)
            workers = 1
        if workers > 1:
            ctx = multiprocessing.get_context("fork")
            _WORKER_STATE = state
            try:
                with ProcessPoolExecutor(
                    max_workers=workers, mp_context=ctx
                ) as pool:
                    outputs = list(pool.map(_run_one, tasks))
            finally:
                _WORKER_STATE = None
        else:
            previous = _WORKER_STATE
            _WORKER_STATE = state
            try:
                outputs = [_run_one(task) for task in tasks]
            finally:
                _WORKER_STATE = previous
        results: List[Any] = []
        # Merge fragments in task order — pool.map preserves input
        # order, so the merged stream is independent of scheduling.
        # Worker span fragments nest under the tracer's innermost open
        # span (the coordinating span, e.g. plan_sharded's shard.pool);
        # the link is identical on the serial path, so the merged tree
        # never depends on the worker count.
        open_span = tracer.current_span() if tracer is not None else None
        parent_id = open_span.span_id if open_span is not None else None
        for result, snapshot, fragment in outputs:
            results.append(result)
            if snapshot is not None and metrics is not None:
                metrics.merge(snapshot)
            if fragment is not None and tracer is not None:
                tracer.adopt(
                    fragment.spans, parent_id=parent_id, events=fragment.events
                )
        return results
