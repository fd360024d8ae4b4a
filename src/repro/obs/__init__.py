"""`repro.obs` — observability: tracing, metrics and profiling.

A zero-overhead-when-disabled instrumentation layer threaded through
the build → simulate → repair pipeline. Four pillars:

* :mod:`repro.obs.trace` — the one recorder, :class:`Tracer`: nested
  spans and point events (shard lifecycle, builder heartbeats, repair
  rounds, invariant failures) on one deterministic sequence counter,
  worker-fragment merging, an ``on_event`` hook for live progress,
  versioned JSONL export (``rtsp-trace/2``), a flight-recorder tail
  dump (:func:`flight_recorded`) and Chrome trace-event export;
  :class:`NullTracer` is the free default.
* :mod:`repro.obs.metrics` — a process-local :class:`MetricsRegistry`
  of counters/gauges/histograms whose snapshots merge associatively, so
  parallel figure runs aggregate worker statistics instead of dropping
  them. Wired into the builders' action log, selector and benefit
  cache, both simulators, and the repair engine.
* :mod:`repro.obs.export` — Prometheus text exposition and OTLP-style
  JSON for metrics snapshots and span lists, round-trippable for
  validation.
* :mod:`repro.obs.profile` — :class:`StageProfiler` (per-stage wall
  clocks) plus opt-in cProfile (:func:`profiled`) and tracemalloc
  (:func:`trace_memory`) context managers.

Activation is context-based (:mod:`repro.obs.context`): install a
tracer/registry with :func:`observed` and every instrumented layer
underneath starts reporting; with nothing installed the hot paths pay
a single ``None`` check. Example::

    from repro.obs import MetricsRegistry, Tracer, observed
    from repro.core.pipeline import build_pipeline

    tracer, metrics = Tracer(), MetricsRegistry()
    with observed(tracer=tracer, metrics=metrics):
        schedule = build_pipeline("GOLCF+H1+H2").run(instance, rng=0)
    tracer.write_jsonl("trace.jsonl")
    metrics.write_json("metrics.json")
"""

from repro.obs.context import (
    current_metrics,
    current_tracer,
    flight_recorded,
    observed,
    use_metrics,
    use_tracer,
)
from repro.obs.export import (
    metrics_to_otlp,
    otlp_to_snapshot,
    parse_prometheus_text,
    prometheus_text,
    sanitize_metric_name,
    spans_to_otlp,
    write_otlp,
    write_prometheus,
)
from repro.obs.metrics import (
    METRICS_FORMAT,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import (
    MemorySnapshot,
    ProfileReport,
    StageProfiler,
    profiled,
    timed,
    trace_memory,
)
from repro.obs.summary import (
    ShardRow,
    SpanAggregate,
    TraceSummary,
    render_summary,
    summarize_spans,
)
from repro.obs.trace import (
    NULL_TRACER,
    TRACE_FORMAT,
    Event,
    NullTracer,
    Span,
    Tracer,
    load_trace,
    render_event,
    validate_trace_file,
    validate_trace_lines,
)

__all__ = [
    # export
    "prometheus_text",
    "parse_prometheus_text",
    "metrics_to_otlp",
    "otlp_to_snapshot",
    "spans_to_otlp",
    "sanitize_metric_name",
    "write_prometheus",
    "write_otlp",
    # trace
    "TRACE_FORMAT",
    "Event",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "load_trace",
    "render_event",
    "validate_trace_lines",
    "validate_trace_file",
    # metrics
    "METRICS_FORMAT",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    # profile
    "StageProfiler",
    "timed",
    "profiled",
    "ProfileReport",
    "trace_memory",
    "MemorySnapshot",
    # summary
    "ShardRow",
    "SpanAggregate",
    "TraceSummary",
    "summarize_spans",
    "render_summary",
    # context
    "current_tracer",
    "current_metrics",
    "use_tracer",
    "use_metrics",
    "observed",
    "flight_recorded",
]
