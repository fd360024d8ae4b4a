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
  None`` check, captured once at construction time);
* :func:`current_events` — the active
  :class:`~repro.obs.events.EventStream`, or ``None`` when the event
  stream is off (same single ``is None`` check contract as metrics).

The context is installed with the :func:`use_tracer` / :func:`use_metrics`
/ :func:`use_events` / :func:`observed` context managers. It lives in
:mod:`contextvars` variables, so each thread sees only what it installed
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
from typing import ContextManager, Iterator, Optional, Union

from repro.obs.events import EventStream
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "current_tracer",
    "current_metrics",
    "current_events",
    "use_tracer",
    "use_metrics",
    "use_events",
    "observed",
]

_active_tracer: ContextVar[Union[Tracer, NullTracer]] = ContextVar(
    "repro_obs_tracer", default=NULL_TRACER
)
_active_metrics: ContextVar[Optional[MetricsRegistry]] = ContextVar(
    "repro_obs_metrics", default=None
)
_active_events: ContextVar[Optional[EventStream]] = ContextVar(
    "repro_obs_events", default=None
)


def current_tracer() -> Union[Tracer, NullTracer]:
    """The active tracer (:data:`NULL_TRACER` when tracing is off)."""
    return _active_tracer.get()


def current_metrics() -> Optional[MetricsRegistry]:
    """The active metrics registry, or ``None`` when metrics are off."""
    return _active_metrics.get()


def current_events() -> Optional[EventStream]:
    """The active event stream, or ``None`` when events are off."""
    return _active_events.get()


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


def use_events(stream: Optional[EventStream]) -> ContextManager[None]:
    """Install ``stream`` as the active event sink for the block.

    ``None`` turns the event stream off for the block.
    """
    return _installed(_active_events, stream)


@contextmanager
def observed(
    tracer: Optional[Union[Tracer, NullTracer]] = None,
    metrics: Optional[MetricsRegistry] = None,
    events: Optional[EventStream] = None,
) -> Iterator[None]:
    """Install all instruments at once (any may be ``None``)."""
    with use_tracer(tracer), use_metrics(metrics), use_events(events):
        yield
