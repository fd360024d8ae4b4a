"""Observability wiring through the build / simulate / repair pipeline.

The contract under test is two-sided: with instruments installed the hot
paths actually record (non-zero counters, per-stage deltas, spans), and
with instruments off the outputs are byte-identical to an unobserved run
— observability must never perturb the algorithms.
"""

import json

from repro.core.pipeline import build_pipeline
from repro.model.state import SystemState
from repro.obs import (
    MetricsRegistry,
    NULL_TRACER,
    Tracer,
    observed,
    use_metrics,
    use_tracer,
)
from repro.robust.faults import FaultPlan
from repro.robust.repair import RepairEngine
from repro.timing.bandwidth import bandwidths_from_costs
from repro.timing.executor import simulate_parallel
from repro.workloads.regular import paper_instance


def _instance(rng=3):
    return paper_instance(replicas=2, num_servers=8, num_objects=20, rng=rng)


def _schedule_bytes(schedule):
    return json.dumps(
        [repr(a) for a in schedule.actions()], sort_keys=True
    ).encode()


class TestBuilderMetrics:
    def test_golcf_build_records_counters(self):
        registry = MetricsRegistry()
        with use_metrics(registry):
            build_pipeline("GOLCF").run(_instance(), rng=0)
        counters = registry.counter_values()
        assert counters["builder.transfers"] > 0
        assert counters["builder.candidates_scanned"] > 0
        assert counters["builder.selector_queries"] > 0

    def test_pipeline_stage_counter_deltas(self):
        registry = MetricsRegistry()
        pipeline = build_pipeline("GOLCF+H1+H2+OP1")
        with use_metrics(registry):
            _, stats = pipeline.run_with_stats(_instance(), rng=0)
        assert [s.stage for s in stats] == ["GOLCF", "H1", "H2", "OP1"]
        build = stats[0]
        assert build.counters.get("builder.transfers", 0) > 0
        # Stage deltas must sum to the registry totals.
        total = sum(
            s.counters.get("builder.transfers", 0) for s in stats
        )
        assert total == registry.counter_values()["builder.transfers"]

    def test_disabled_metrics_do_not_record(self):
        registry = MetricsRegistry()
        build_pipeline("GOLCF").run(_instance(), rng=0)  # no context
        assert registry.counter_values() == {}


class TestExecutorMetrics:
    def test_simulate_parallel_records_queue_depth(self):
        instance = _instance()
        schedule = build_pipeline("GOLCF+H1+H2").run(instance, rng=0)
        registry = MetricsRegistry()
        with use_metrics(registry):
            simulate_parallel(
                schedule, instance, bandwidths_from_costs(instance.costs)
            )
        snap = registry.snapshot()
        assert snap["counters"]["executor.transfers_started"] > 0
        assert snap["histograms"]["executor.queue_depth"]["count"] > 0
        assert snap["histograms"]["executor.in_flight"]["count"] > 0


class TestRepairMetrics:
    def test_repair_records_rounds_and_replans(self):
        instance = _instance(rng=5)
        engine = RepairEngine("GOLCF+H1+H2")
        baseline = simulate_parallel(
            engine.pipeline.run(instance, rng=1),
            instance,
            bandwidths_from_costs(instance.costs),
        )
        plan = FaultPlan.generate(
            instance, 0.3, seed=11, horizon=max(baseline.makespan, 1.0)
        )
        registry = MetricsRegistry()
        tracer = Tracer()
        with observed(tracer=tracer, metrics=registry):
            report = engine.execute(instance, plan, rng=1)
        counters = registry.counter_values()
        assert counters["repair.rounds"] == report.rounds
        assert counters.get("repair.replans", 0) == report.replans
        round_spans = [s for s in tracer.spans if s.name == "repair.round"]
        # The final (successful) simulate opens a span but is not a
        # repair round, hence the +1.
        assert len(round_spans) == report.rounds + 1

    def test_report_backoff_and_replans_fields(self):
        instance = _instance(rng=5)
        engine = RepairEngine("GSDF")
        plan = FaultPlan.generate(instance, 0.0, seed=1, horizon=10.0)
        report = engine.execute(instance, plan, rng=1)
        assert report.replans == 0
        assert report.backoff_total == 0.0


class TestNonPerturbation:
    def test_observed_run_matches_unobserved(self):
        instance = _instance()
        plain = build_pipeline("GOLCF+H1+H2+OP1").run(instance, rng=7)
        with observed(tracer=Tracer(), metrics=MetricsRegistry()):
            traced = build_pipeline("GOLCF+H1+H2+OP1").run(instance, rng=7)
        assert _schedule_bytes(plain) == _schedule_bytes(traced)

    def test_null_tracer_matches_unobserved(self):
        instance = _instance()
        plain = build_pipeline("GOLCF").run(instance, rng=7)
        with use_tracer(NULL_TRACER):
            nulled = build_pipeline("GOLCF").run(instance, rng=7)
        assert _schedule_bytes(plain) == _schedule_bytes(nulled)


class TestIndexCopy:
    def test_copied_state_answers_nearest(self):
        # Regression: copying a state once dropped the dummy index, so
        # nearest-source queries on the copy crashed.
        instance = _instance()
        state = SystemState(instance)
        dup = state.copy()
        for obj in range(instance.num_objects):
            for server in range(instance.num_servers):
                assert dup.nearest(server, obj) == state.nearest(server, obj)
