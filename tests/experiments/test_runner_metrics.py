"""Observability aggregation across serial and pooled figure runs.

The headline regression under test: ``run_figure(workers=N)`` used to
drop every worker's statistics. Now each repetition records into its own
fragment and the parent merges them in deterministic task order, so the
merged counter totals are *equal* for any worker count.
"""

import pytest

from repro.experiments.runner import run_figure
from repro.obs import MetricsRegistry, Tracer, observed
from tests.experiments.test_runner import TINY, tiny_spec

#: Deterministic counters that must agree between worker counts. Wall
#: clock data lives in histograms and is excluded on purpose.
_KEY_COUNTERS = (
    "builder.transfers",
    "builder.candidates_scanned",
    "builder.selector_queries",
    "executor.transfers_started",
)


def _counters(workers):
    metrics = MetricsRegistry()
    run_figure(tiny_spec(), TINY, metrics=metrics, workers=workers)
    return metrics.counter_values()


class TestWorkerMetricsAggregation:
    def test_serial_counters_nonzero(self):
        counters = _counters(workers=None)
        for name in _KEY_COUNTERS:
            assert counters.get(name, 0) > 0, name

    def test_worker_counts_agree(self):
        serial = _counters(workers=None)
        pooled = _counters(workers=2)
        assert serial == pooled

    def test_result_carries_metrics_snapshot(self):
        metrics = MetricsRegistry()
        result = run_figure(tiny_spec(), TINY, metrics=metrics, workers=2)
        assert result.metrics is not None
        assert result.metrics["format"] == "rtsp-metrics/1"
        assert result.metrics["counters"] == metrics.counter_values()
        assert (
            result.metrics["histograms"]["executor.queue_depth"]["count"] > 0
        )

    def test_no_obs_leaves_metrics_none(self):
        result = run_figure(tiny_spec(), TINY)
        assert result.metrics is None

    def test_observed_values_match_unobserved(self):
        plain = run_figure(tiny_spec(), TINY)
        observed_run = run_figure(
            tiny_spec(), TINY, metrics=MetricsRegistry(), tracer=Tracer()
        )
        for a, b in zip(plain.cells, observed_run.cells):
            assert (a.x, a.pipeline, a.values) == (b.x, b.pipeline, b.values)

    def test_defaults_from_context(self):
        metrics = MetricsRegistry()
        tracer = Tracer()
        with observed(tracer=tracer, metrics=metrics):
            result = run_figure(tiny_spec(), TINY)
        assert result.metrics is not None
        assert metrics.counter_values()["builder.transfers"] > 0
        assert any(s.name == "repetition" for s in tracer.spans)


class TestTraceAggregation:
    def test_trace_spans_cover_grid(self):
        tracer = Tracer()
        run_figure(tiny_spec(), TINY, tracer=tracer)
        reps = [s for s in tracer.spans if s.name == "repetition"]
        cells = [s for s in tracer.spans if s.name == "cell"]
        sims = [s for s in tracer.spans if s.name == "simulate"]
        assert len(reps) == 2 * 2  # x values x repetitions
        assert len(cells) == len(sims) == 2 * 2 * 2  # ... x pipelines
        assert all("makespan" in s.attrs for s in sims)

    def test_logical_stream_identical_across_worker_counts(self):
        streams = []
        for workers in (None, 2):
            tracer = Tracer()
            run_figure(tiny_spec(), TINY, tracer=tracer, workers=workers)
            streams.append(tracer.logical_lines())
        assert streams[0] == streams[1]

    @pytest.mark.parametrize("workers", [None, 2])
    def test_span_ids_unique_after_merge(self, workers):
        tracer = Tracer()
        run_figure(tiny_spec(), TINY, tracer=tracer, workers=workers)
        ids = [s.span_id for s in tracer.spans]
        assert len(set(ids)) == len(ids)
