"""Tests for pipeline composition and parsing."""

import numpy as np
import pytest

from repro.core import build_pipeline, get_builder, get_optimizer
from repro.core.pipeline import PAPER_PIPELINES, Pipeline
from repro.model.instance import RtspInstance
from repro.util.errors import ConfigurationError
from repro.workloads.regular import paper_instance


class TestParsing:
    def test_builder_only(self):
        p = build_pipeline("GOLCF")
        assert p.name == "GOLCF"
        assert p.optimizers == []

    def test_full_chain(self):
        p = build_pipeline("GOLCF+H1+H2+OP1")
        assert p.builder.name == "GOLCF"
        assert [o.name for o in p.optimizers] == ["H1", "H2", "OP1"]

    def test_whitespace_tolerated(self):
        p = build_pipeline(" golcf + h1 ")
        assert p.name == "golcf+h1"
        assert p.builder.name == "GOLCF"

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            build_pipeline("")

    def test_unknown_component_rejected(self):
        with pytest.raises(ConfigurationError):
            build_pipeline("GOLCF+WAT")

    def test_optimizer_as_builder_rejected(self):
        with pytest.raises(ConfigurationError):
            build_pipeline("H1+GOLCF")

    def test_all_paper_pipelines_parse(self):
        for spec in PAPER_PIPELINES.values():
            assert build_pipeline(spec) is not None


class TestExecution:
    def test_run_produces_valid_schedule(self, fig3):
        schedule = build_pipeline("GSDF+H1+OP1").run(fig3, rng=0)
        assert schedule.validate(fig3).ok

    def test_run_deterministic(self, fig3):
        a = build_pipeline("AR+H1+H2+OP1").run(fig3, rng=3)
        b = build_pipeline("AR+H1+H2+OP1").run(fig3, rng=3)
        assert a == b

    def test_run_with_stats_stages(self, fig3):
        schedule, stats = build_pipeline("GOLCF+H1+OP1").run_with_stats(
            fig3, rng=1
        )
        assert [s.stage for s in stats] == ["GOLCF", "H1", "OP1"]
        assert stats[-1].cost == schedule.cost(fig3)
        assert all(s.seconds >= 0 for s in stats)

    @pytest.mark.parametrize("spec", ["GOLCF", "GOLCF+H1", "GOLCF+H1+H2+OP1"])
    def test_stage_stats_match_schedule_accounting(self, spec):
        """The one-pass stage stats equal ``Schedule.cost`` bit for bit
        and the dummy count. Sizes are sevenths, so the products round
        and the sum depends on its order."""
        base = paper_instance(
            2, 20, 60, uniform_size_range=(1000.0, 5000.0), rng=4
        )
        sizes = base.sizes / 7
        inst = RtspInstance.create(
            sizes,
            np.maximum(base.x_old @ sizes, base.x_new @ sizes),
            base.costs,
            base.x_old,
            base.x_new,
        )
        schedule, stats = build_pipeline(spec).run_with_stats(inst, rng=4)
        assert stats[-1].cost == schedule.cost(inst)
        assert stats[-1].dummy_transfers == schedule.count_dummy_transfers(inst)
        assert stats[0].dummy_transfers > 0

    def test_stats_monotone_improvements(self, medium_paper_instance):
        inst = medium_paper_instance
        _, stats = build_pipeline("GOLCF+H1+H2+OP1").run_with_stats(inst, rng=2)
        # H1/H2 never increase dummies; OP1 never increases cost
        assert stats[1].dummy_transfers <= stats[0].dummy_transfers
        assert stats[2].dummy_transfers <= stats[1].dummy_transfers
        assert stats[3].cost <= stats[2].cost + 1e-9

    def test_custom_composition(self, fig3):
        p = Pipeline(get_builder("RDF"), [get_optimizer("H1")], name="mine")
        assert p.name == "mine"
        assert p.run(fig3, rng=0).validate(fig3).ok

    def test_default_name_joined(self):
        p = Pipeline(get_builder("RDF"), [get_optimizer("H1")])
        assert p.name == "RDF+H1"


class TestReplanTrivialResidual:
    def test_trivial_residual_short_circuits_to_empty_schedule(self, fig3):
        """placement == X_new: no stage runs, the schedule is empty."""
        pipeline = build_pipeline("GOLCF+H1")

        def boom(instance, rng=None):
            raise AssertionError("pipeline ran on a trivial residual")

        pipeline.run = boom  # any stage invocation is a regression
        schedule = pipeline.replan(fig3, fig3.x_new)
        assert len(schedule) == 0

    def test_nontrivial_residual_still_plans(self, fig3):
        pipeline = build_pipeline("GOLCF+H1")
        schedule = pipeline.replan(fig3, fig3.x_old, rng=3)
        assert len(schedule) > 0
        assert schedule.validate(fig3).ok
