"""Tests for the repro.tools CLI."""

import json

import pytest

from repro.io import save_instance, save_schedule
from repro.model.actions import Delete, Transfer
from repro.model.schedule import Schedule
from repro.tools.cli import build_parser, main
from repro.workloads.regular import paper_instance


@pytest.fixture(scope="module")
def instance():
    return paper_instance(replicas=2, num_servers=6, num_objects=12, rng=2)


@pytest.fixture
def instance_file(instance, tmp_path):
    path = tmp_path / "instance.json"
    save_instance(instance, path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_schedule_defaults(self):
        args = build_parser().parse_args(
            ["schedule", "--instance", "i.json", "--out", "s.json"]
        )
        assert args.pipeline == "GOLCF+H1+H2+OP1"
        assert args.seed == 0


class TestScheduleCommand:
    def test_end_to_end(self, instance_file, tmp_path, capsys):
        out = tmp_path / "schedule.json"
        code = main(
            ["schedule", "--instance", instance_file, "--out", str(out)]
        )
        assert code == 0
        assert "cost=" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert data["format"] == "rtsp-schedule/1"

    def test_custom_pipeline(self, instance_file, tmp_path):
        out = tmp_path / "schedule.json"
        assert main(
            ["schedule", "--instance", instance_file, "--out", str(out),
             "--pipeline", "RDF", "--seed", "7"]
        ) == 0

    def test_sharded_path_matches_unsharded(self, tmp_path, capsys):
        from repro.shard import compose_instances

        composed = compose_instances(
            [
                paper_instance(2, num_servers=6, num_objects=12, rng=block)
                for block in range(2)
            ]
        )
        path = tmp_path / "composed.json"
        save_instance(composed, path)
        outputs = {}
        for shards in (1, 2, 4):
            out = tmp_path / f"sharded{shards}.json"
            code = main(
                ["schedule", "--instance", str(path), "--pipeline",
                 "GOLCF+H1", "--seed", "5", "--out", str(out),
                 "--shards", str(shards), "--workers", "2"]
            )
            assert code == 0
            outputs[shards] = out.read_text()
        printed = capsys.readouterr().out
        assert "sharded over 2 component(s)" in printed
        # The schedule file is byte-identical for every --shards value.
        assert outputs[1] == outputs[2] == outputs[4]
        # And it validates against the instance.
        assert main(
            ["validate", "--instance", str(path), "--schedule",
             str(tmp_path / "sharded1.json"), "--strict"]
        ) == 0

    def test_bad_pipeline_is_error(self, instance_file, tmp_path, capsys):
        out = tmp_path / "s.json"
        code = main(
            ["schedule", "--instance", instance_file, "--out", str(out),
             "--pipeline", "NOPE"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_instance_file(self, tmp_path):
        assert main(
            ["schedule", "--instance", str(tmp_path / "nope.json"),
             "--out", str(tmp_path / "s.json")]
        ) == 2


class TestValidateCommand:
    def test_valid_round_trip(self, instance, instance_file, tmp_path, capsys):
        sched_path = tmp_path / "schedule.json"
        main(["schedule", "--instance", instance_file, "--out", str(sched_path)])
        capsys.readouterr()
        code = main(
            ["validate", "--instance", instance_file, "--schedule", str(sched_path)]
        )
        assert code == 0
        assert "VALID" in capsys.readouterr().out

    def test_invalid_schedule(self, instance, instance_file, tmp_path, capsys):
        bad = Schedule([Delete(0, 0) for _ in range(1)])
        # deleting an arbitrary replica almost surely breaks the end state
        sched_path = tmp_path / "bad.json"
        save_schedule(bad, sched_path)
        code = main(
            ["validate", "--instance", instance_file, "--schedule", str(sched_path)]
        )
        assert code == 1
        assert "INVALID" in capsys.readouterr().out


class TestAnalyzeCommand:
    def test_report_fields(self, instance_file, capsys):
        assert main(["analyze", "--instance", instance_file]) == 0
        out = capsys.readouterr().out
        for field in (
            "outstanding replicas",
            "storage feasible",
            "cost lower bound",
            "worst-case bound",
        ):
            assert field in out


class TestMakespanCommand:
    def test_simulation(self, instance_file, tmp_path, capsys):
        sched_path = tmp_path / "schedule.json"
        main(["schedule", "--instance", instance_file, "--out", str(sched_path)])
        capsys.readouterr()
        code = main(
            ["makespan", "--instance", instance_file,
             "--schedule", str(sched_path), "--slots", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "speedup" in out

    def test_rejects_invalid_schedule(self, instance_file, tmp_path, capsys):
        sched_path = tmp_path / "bad.json"
        save_schedule(Schedule([Transfer(0, 0, 99)]), sched_path)
        code = main(
            ["makespan", "--instance", instance_file, "--schedule", str(sched_path)]
        )
        assert code in (1, 2)


class TestTraceSummaryCommand:
    def _trace_file(self, tmp_path):
        from repro.obs import Tracer

        tracer = Tracer(meta={"figure": "4"})
        with tracer.span("repetition", x=1):
            with tracer.span("cell", pipeline="GOLCF"):
                pass
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(path))
        return str(path)

    def test_renders_summary(self, tmp_path, capsys):
        path = self._trace_file(tmp_path)
        assert main(["trace-summary", path]) == 0
        out = capsys.readouterr().out
        assert "rtsp-trace/2" in out
        assert "repetition" in out and "cell" in out

    def test_top_limits_rows(self, tmp_path, capsys):
        path = self._trace_file(tmp_path)
        assert main(["trace-summary", path, "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "cell" in out or "repetition" in out

    def test_rejects_invalid_file(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "nope"}\n')
        assert main(["trace-summary", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_missing_file_is_error(self, tmp_path, capsys):
        assert main(["trace-summary", str(tmp_path / "none.jsonl")]) == 2
        assert "error" in capsys.readouterr().err
