"""Tests for reporting and the CLI."""

import os

import pytest

from repro.experiments.cli import build_parser, main
from repro.experiments.config import ExperimentScale, FigureSpec
from repro.experiments.report import render_ascii_chart, render_csv, render_table
from repro.experiments.runner import run_figure
from repro.workloads.regular import paper_instance

TINY = ExperimentScale("tiny", num_servers=6, num_objects=12, repetitions=2)


@pytest.fixture(scope="module")
def result():
    spec = FigureSpec(
        figure_id="figT",
        title="tiny title",
        x_label="replicas",
        y_label="cost",
        metric="cost",
        pipelines=["AR", "GOLCF"],
        x_values=[1, 2],
        make_instance=lambda x, scale, seed: paper_instance(
            replicas=int(x),
            num_servers=scale.num_servers,
            num_objects=scale.num_objects,
            rng=seed,
        ),
        workload_key="tiny-report",
        expected_shape="GOLCF below AR",
    )
    return run_figure(spec, TINY)


class TestRenderTable:
    def test_contains_title_and_series(self, result):
        table = render_table(result)
        assert "tiny title" in table
        assert "AR" in table and "GOLCF" in table
        assert "replicas" in table

    def test_one_row_per_x(self, result):
        table = render_table(result)
        lines = [l for l in table.splitlines() if l.strip().startswith(("1", "2"))]
        assert len(lines) == 2

    def test_expected_shape_shown(self, result):
        assert "GOLCF below AR" in render_table(result)

    def test_std_suppression(self, result):
        assert "±" not in render_table(result, show_std=False)


class TestRenderCsv:
    def test_header_and_rows(self, result):
        csv = render_csv(result)
        lines = csv.strip().splitlines()
        assert lines[0].startswith("figure,scale,x,pipeline")
        assert len(lines) == 1 + len(result.cells)

    def test_values_joined(self, result):
        csv = render_csv(result)
        assert ";" in csv  # two repetition values per cell


class TestAsciiChart:
    def test_contains_marks_and_bounds(self, result):
        chart = render_ascii_chart(result)
        assert "o=AR" in chart
        assert "x=GOLCF" in chart
        assert "replicas" in chart


class TestCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.figure == "all"
        assert args.scale == "small"

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scale", "galactic"])

    def test_end_to_end_single_figure(self, tmp_path, capsys):
        code = main(
            [
                "--figure",
                "4",
                "--scale",
                "small",
                "--reps",
                "1",
                "--quiet",
                "--csv-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FIG4" in out
        assert os.path.exists(tmp_path / "fig4.csv")

    def test_seed_override_changes_results(self, capsys):
        main(["--figure", "4", "--scale", "small", "--reps", "1", "--quiet",
              "--seed", "1"])
        out1 = capsys.readouterr().out
        main(["--figure", "4", "--scale", "small", "--reps", "1", "--quiet",
              "--seed", "2"])
        out2 = capsys.readouterr().out
        assert out1 != out2


class TestObservabilityFlags:
    def test_trace_metrics_profile_artifacts(self, tmp_path, capsys):
        import json

        from repro.obs import validate_trace_file

        trace = tmp_path / "trace.jsonl"
        chrome = tmp_path / "chrome.json"
        metrics = tmp_path / "metrics.json"
        code = main(
            ["--figure", "4", "--scale", "small", "--reps", "1", "--quiet",
             "--trace", str(trace), "--chrome-trace", str(chrome),
             "--metrics-json", str(metrics), "--profile"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"wrote {trace}" in out
        assert "function calls" in out  # --profile output
        assert validate_trace_file(str(trace)) == []
        chrome_data = json.loads(chrome.read_text())
        assert chrome_data["traceEvents"]
        snap = json.loads(metrics.read_text())
        assert snap["format"] == "rtsp-metrics/1"
        assert snap["counters"]["builder.candidates_scanned"] > 0
        assert snap["counters"]["builder.transfers"] > 0
        assert snap["histograms"]["executor.queue_depth"]["count"] > 0

    def test_parser_obs_defaults(self):
        args = build_parser().parse_args([])
        assert args.trace is None
        assert args.metrics_json is None
        assert not args.profile
