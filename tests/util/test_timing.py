"""Behaviour tests for the wall-clock profiler and decorator of
:mod:`repro.obs.profile` (:class:`StageProfiler`, :func:`timed`)."""

import time

from repro.obs.profile import StageProfiler, timed


class TestStageProfiler:
    def test_stage_records_time(self):
        profiler = StageProfiler()
        with profiler.stage("work"):
            time.sleep(0.01)
        assert profiler.laps["work"] >= 0.005

    def test_laps_accumulate(self):
        profiler = StageProfiler()
        profiler.add("a", 1.0)
        profiler.add("a", 2.0)
        assert profiler.laps["a"] == 3.0

    def test_total(self):
        profiler = StageProfiler()
        profiler.add("a", 1.0)
        profiler.add("b", 2.0)
        assert profiler.total == 3.0

    def test_report_contains_names(self):
        profiler = StageProfiler()
        profiler.add("build", 0.5)
        profiler.add("optimize", 1.5)
        report = profiler.report()
        assert "build" in report and "optimize" in report
        # longest stage first
        assert report.index("optimize") < report.index("build")

    def test_empty_report(self):
        assert "no laps" in StageProfiler().report()


class TestTimedDecorator:
    def test_records_each_call(self):
        profiler = StageProfiler()

        @timed(profiler)
        def f(x):
            return x * 2

        assert f(2) == 4
        assert f(3) == 6
        assert "f" in profiler.laps

    def test_custom_name(self):
        profiler = StageProfiler()

        @timed(profiler, "custom")
        def g():
            return 1

        g()
        assert "custom" in profiler.laps

    def test_records_on_exception(self):
        profiler = StageProfiler()

        @timed(profiler)
        def boom():
            raise ValueError

        try:
            boom()
        except ValueError:
            pass
        assert "boom" in profiler.laps
