"""Cross-process observability linkage for sharded planning.

The acceptance criteria for the telemetry subsystem live here:

* schedules are byte-identical with metrics/tracing on or off, for any
  worker count;
* event logical records are byte-identical across worker counts
  (events describe the *plan*, not the execution);
* worker-side span fragments adopted by the coordinator nest under the
  ``plan_sharded`` span, so a Chrome export of a ``workers > 1`` run
  shows every shard inside the coordinating span;
* plan-quality gauges land in the metrics registry;
* stitch-time invariant violations emit an event before re-raising, so
  a flight-recorder dump of the crash holds it.
"""

import json

import pytest

from repro.core.pipeline import build_pipeline
from repro.exact.validate import InvalidScheduleError
from repro.obs import (
    MetricsRegistry,
    Tracer,
    flight_recorded,
    load_trace,
    observed,
    validate_trace_lines,
)
from repro.shard import plan_sharded

PIPELINE = "GOLCF+H1"
SEED = 7


@pytest.fixture(scope="module")
def pipeline():
    return build_pipeline(PIPELINE)


def observed_plan(composed, pipeline, workers, shards=3):
    """Plan under a tracer and a registry; return (plan, tracer, registry)."""
    tracer = Tracer()
    registry = MetricsRegistry()
    with observed(tracer=tracer, metrics=registry):
        plan = plan_sharded(
            composed, pipeline, shards=shards, workers=workers, rng=SEED
        )
    return plan, tracer, registry


class TestScheduleByteIdentity:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_observability_does_not_change_the_plan(
        self, composed, pipeline, workers
    ):
        bare = plan_sharded(
            composed, pipeline, shards=3, workers=workers, rng=SEED
        )
        watched, _, _ = observed_plan(composed, pipeline, workers)
        assert list(watched.schedule) == list(bare.schedule)
        assert watched.cost == bare.cost


class TestEvents:
    def test_logical_lines_identical_across_worker_counts(
        self, composed, pipeline
    ):
        def logical(tracer):
            return [json.dumps(e.logical_record()) for e in tracer.events]

        _, serial, _ = observed_plan(composed, pipeline, workers=1)
        _, parallel, _ = observed_plan(composed, pipeline, workers=2)
        assert logical(serial) == logical(parallel)
        assert validate_trace_lines(serial.to_lines()) == []

    def test_lifecycle_events_present_in_order(self, composed, pipeline):
        _, tracer, _ = observed_plan(composed, pipeline, workers=2)
        names = [e.name for e in tracer.events]
        assert names[0] == "plan.start"
        assert names[-1] == "plan.done"
        assert names.count("shard.part") == 3
        assert "plan.stitch" in names
        # shard completions arrive in canonical part order, not finish order
        parts = [e.attrs["part"] for e in tracer.events
                 if e.name == "shard.part"]
        assert parts == [0, 1, 2]

    def test_plan_done_carries_quality_attrs(self, composed, pipeline):
        _, tracer, _ = observed_plan(composed, pipeline, workers=1)
        done = tracer.events[-1]
        for key in ("cost", "cost_gap", "dummy_traffic_ratio",
                    "lpt_imbalance"):
            assert key in done.attrs, key


class TestSpanLinkage:
    def test_shard_spans_nest_under_plan_sharded(self, composed, pipeline):
        """Adopted worker fragments re-parent under the coordinator span."""
        _, tracer, _ = observed_plan(composed, pipeline, workers=2)
        by_id = {s.span_id: s for s in tracer.spans}

        def ancestors(span):
            while span.parent_id is not None:
                span = by_id[span.parent_id]
                yield span.name

        shard_spans = [s for s in tracer.spans if s.name == "shard.plan"]
        assert len(shard_spans) == 3
        for span in shard_spans:
            assert "plan_sharded" in ancestors(span)

    def test_logical_spans_identical_across_worker_counts(
        self, composed, pipeline
    ):
        def logical(tracer):
            records = [s.logical_record() for s in tracer.spans]
            for rec in records:
                rec["attrs"] = {
                    k: v for k, v in rec["attrs"].items() if k != "workers"
                }
            return json.dumps(records, sort_keys=True)

        _, serial, _ = observed_plan(composed, pipeline, workers=1)
        _, parallel, _ = observed_plan(composed, pipeline, workers=2)
        assert logical(serial) == logical(parallel)

    def test_chrome_export_uses_logical_clock_and_contains_shards(
        self, composed, pipeline, tmp_path
    ):
        _, tracer, _ = observed_plan(composed, pipeline, workers=2)
        path = tmp_path / "chrome.json"
        tracer.write_chrome(str(path))
        doc = json.loads(path.read_text())
        assert doc["otherData"]["clock"] == "logical"
        events = doc["traceEvents"]
        root = next(e for e in events if e["name"] == "plan_sharded")
        shards = [e for e in events if e["name"] == "shard.plan"]
        assert len(shards) == 3
        for ev in shards:
            # logical containment: every shard interval sits inside root
            assert root["ts"] <= ev["ts"]
            assert ev["ts"] + ev["dur"] <= root["ts"] + root["dur"]


class TestQualityGauges:
    def test_quality_recorded_in_registry(self, composed, pipeline):
        _, _, registry = observed_plan(composed, pipeline, workers=1)
        snap = registry.snapshot()
        gauges = snap["gauges"]
        assert gauges["plan.cost"]["value"] > 0
        assert gauges["plan.dummy_traffic_ratio"]["value"] >= 0.0
        assert gauges["plan.lpt_imbalance"]["value"] >= 1.0

    def test_quality_annotated_on_root_span(self, composed, pipeline):
        _, tracer, _ = observed_plan(composed, pipeline, workers=1)
        root = next(s for s in tracer.spans if s.name == "plan_sharded")
        assert "dummy_traffic_ratio" in root.attrs
        assert "lpt_imbalance" in root.attrs


class TestInvariantFailureTelemetry:
    def test_violation_emits_event_and_dumps_flight_ring(
        self, composed, pipeline, tmp_path, monkeypatch
    ):
        # Corrupt the stitch so the strict oracle rejects it.
        from repro.model.schedule import Schedule
        from repro.shard import planner as planner_mod

        original = Schedule.from_arrays.__func__

        def corrupt(cls, kinds, primary, objs, sources):
            if objs:
                objs = list(objs)
                objs[0] = max(objs) + 1  # dangling object id
            return original(cls, kinds, primary, objs, sources)

        monkeypatch.setattr(
            planner_mod.Schedule, "from_arrays", classmethod(corrupt)
        )

        dump = tmp_path / "flight.jsonl"
        with pytest.raises(InvalidScheduleError):
            with flight_recorded(str(dump), capacity=64) as tracer:
                plan_sharded(
                    composed, pipeline, shards=2, workers=1, rng=SEED
                )
        violations = [e for e in tracer.events
                      if e.name == "invariant.violation"]
        assert len(violations) == 1
        assert "index" in violations[0].attrs["error"]
        header, _, events = load_trace(str(dump))
        assert header["meta"]["reason"] == "exception: InvalidScheduleError"
        assert any(e.name == "invariant.violation" for e in events)
