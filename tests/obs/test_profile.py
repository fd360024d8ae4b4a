"""Tests for the opt-in profilers."""

import time

import pytest

from repro.obs.profile import (
    StageProfiler,
    profiled,
    timed,
    trace_memory,
)


class TestStageProfiler:
    def test_stage_accumulates(self):
        p = StageProfiler()
        with p.stage("build"):
            pass
        with p.stage("build"):
            pass
        assert set(p.laps) == {"build"}
        assert p.laps["build"] >= 0
        assert p.total == pytest.approx(sum(p.laps.values()))

    def test_no_lap_alias(self):
        # stages are recorded under ``laps``; the old ``lap`` alias is gone
        p = StageProfiler()
        with p.stage("x"):
            pass
        assert "x" in p.laps
        assert not hasattr(p, "lap")

    def test_stage_exposes_seconds(self):
        p = StageProfiler()
        with p.stage("s") as stage:
            time.sleep(0.01)
        assert stage.seconds >= 0.005
        assert p.laps["s"] == pytest.approx(stage.seconds)

    def test_add_and_report(self):
        p = StageProfiler()
        p.add("long-name", 2.0)
        p.add("b", 1.0)
        report = p.report()
        assert report.splitlines()[0].startswith("long-name")
        assert "b" in report

    def test_empty_report(self):
        assert "no laps" in StageProfiler().report()

    def test_laps_accumulate(self):
        p = StageProfiler()
        p.add("a", 1.0)
        p.add("a", 2.0)
        assert p.laps["a"] == 3.0

    def test_total(self):
        p = StageProfiler()
        p.add("a", 1.0)
        p.add("b", 2.0)
        assert p.total == 3.0

    def test_timed_decorator_records_on_exception(self):
        p = StageProfiler()

        @timed(p, "boom")
        def explode():
            raise RuntimeError

        with pytest.raises(RuntimeError):
            explode()
        assert "boom" in p.laps


class TestTimedDecorator:
    def test_records_each_call(self):
        p = StageProfiler()

        @timed(p)
        def f(x):
            return x * 2

        assert f(2) == 4
        assert f(3) == 6
        assert "f" in p.laps

    def test_custom_name(self):
        p = StageProfiler()

        @timed(p, "custom")
        def g():
            return 1

        g()
        assert "custom" in p.laps


class TestProfiled:
    def test_captures_stats(self):
        with profiled(limit=5) as report:
            sum(range(1000))
        assert report.stats is not None
        assert "function calls" in report.text

    def test_captures_on_exception(self):
        with pytest.raises(ValueError):
            with profiled() as report:
                raise ValueError
        assert report.stats is not None


class TestTraceMemory:
    def test_measures_allocation(self):
        with trace_memory() as snap:
            blob = [0] * 100_000
        assert snap.peak > 0
        del blob

    def test_nested_keeps_outer_session(self):
        import tracemalloc

        with trace_memory():
            with trace_memory() as inner:
                pass
            assert inner.peak >= 0
            assert tracemalloc.is_tracing()
        assert not tracemalloc.is_tracing()

