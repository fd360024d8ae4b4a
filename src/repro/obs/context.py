"""Per-thread observability context.

Instrumented code never receives a tracer or registry through its
constructor — that would thread observability arguments through every
layer. Instead it asks this module for the *active* instruments:

* :func:`current_tracer` — the active :class:`~repro.obs.trace.Tracer`,
  or the shared :data:`~repro.obs.trace.NULL_TRACER` when tracing is
  off (so callers can use it unconditionally);
* :func:`current_metrics` — the active
  :class:`~repro.obs.metrics.MetricsRegistry`, or ``None`` when metrics
  are off (so hot paths can skip instrumentation with a single ``is
  None`` check, captured once at construction time).

The context is installed with the :func:`use_tracer` / :func:`use_metrics`
/ :func:`observed` / :func:`flight_recorded` context managers. It lives
in :mod:`contextvars` variables, so each thread sees only what it installed
itself: the planning service runs concurrent jobs on worker threads, and
one job's stream must never capture another job's builder. A new thread
starts with everything off; a forked pool worker inherits the forking
thread's context. Instrumented code reads the context once per build or
pipeline construction, never per action, so the lookup is off the hot
path.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, ContextManager, Dict, Iterator, Optional, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Event, NullTracer, Tracer
from repro.util.errors import ConfigurationError

__all__ = [
    "current_tracer",
    "current_metrics",
    "use_tracer",
    "use_metrics",
    "observed",
    "flight_recorded",
]

_active_tracer: ContextVar[Union[Tracer, NullTracer]] = ContextVar(
    "repro_obs_tracer", default=NULL_TRACER
)
_active_metrics: ContextVar[Optional[MetricsRegistry]] = ContextVar(
    "repro_obs_metrics", default=None
)


def current_tracer() -> Union[Tracer, NullTracer]:
    """The active tracer (:data:`NULL_TRACER` when tracing is off)."""
    return _active_tracer.get()


def current_metrics() -> Optional[MetricsRegistry]:
    """The active metrics registry, or ``None`` when metrics are off."""
    return _active_metrics.get()


@contextmanager
def _installed(var: ContextVar, value: object) -> Iterator[None]:
    previous = var.get()
    var.set(value)
    try:
        yield
    finally:
        var.set(previous)


def use_tracer(tracer: Optional[Union[Tracer, NullTracer]]) -> ContextManager[None]:
    """Install ``tracer`` as the active tracer for the ``with`` block.

    ``None`` maps to :data:`NULL_TRACER` (tracing off), so callers can
    pass an optional tracer straight through.
    """
    return _installed(_active_tracer, NULL_TRACER if tracer is None else tracer)


def use_metrics(registry: Optional[MetricsRegistry]) -> ContextManager[None]:
    """Install ``registry`` as the active metrics sink for the block.

    ``None`` turns metrics off for the block.
    """
    return _installed(_active_metrics, registry)


@contextmanager
def observed(
    tracer: Optional[Union[Tracer, NullTracer]] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Iterator[None]:
    """Install both instruments at once (either may be ``None``)."""
    with use_tracer(tracer), use_metrics(metrics):
        yield


@contextmanager
def flight_recorded(
    path: str,
    capacity: int = 256,
    meta: Optional[Dict[str, Any]] = None,
    on_event: Optional[Callable[[Event], None]] = None,
) -> Iterator[Tracer]:
    """Run a block under a fresh tracer that dumps its tail on a crash.

    If the block raises, the tracer records an ``exception`` event and
    writes its last ``capacity`` records to ``path`` (see
    :meth:`~repro.obs.trace.Tracer.write_tail`) before re-raising; on a
    clean exit nothing is written. The yielded tracer can still be
    exported in full by the caller.
    """
    if capacity < 1:
        raise ConfigurationError(
            f"flight recorder capacity must be >= 1, got {capacity}"
        )
    tracer = Tracer(meta=meta, on_event=on_event)
    try:
        with use_tracer(tracer):
            yield tracer
    except BaseException as exc:
        tracer.event(
            "exception", error=type(exc).__name__, message=str(exc)[:500]
        )
        tracer.write_tail(path, capacity, f"exception: {type(exc).__name__}")
        raise
