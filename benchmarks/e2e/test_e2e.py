"""Checks of the end-to-end benchmark itself, on its ``--smoke`` mode.

These sit outside tier-1's ``testpaths``; run them with

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE), "--smoke", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    return _smoke(tmp / "first.json"), _smoke(tmp / "second.json")


def test_metric_names_and_units_match_benchmark_json(smoke_runs):
    run = smoke_runs[0]
    assert set(run["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in run["workloads"].values():
        assert {k: v["unit"] for k, v in result["metrics"].items()} == end_to_end
        assert {k: v["unit"] for k, v in result["layers"].items()} == per_layer


def test_every_reply_checks_and_traced_schedules_match_served(smoke_runs):
    for name, result in smoke_runs[0]["workloads"].items():
        assert result["correct"], (name, result["failures"])
        assert result["failed"] == 0 and result["attempted"] > 0
        assert result["traced_requests"] > 0


def test_two_smoke_runs_repeat_inputs_plans_and_counters(smoke_runs):
    first, second = smoke_runs
    for name, result in first["workloads"].items():
        again = second["workloads"][name]
        for key in ("inputs_digest", "plans_digest", "counters"):
            assert result[key] == again[key], (name, key)


def test_fails_without_the_program(tmp_path):
    """In a tree holding only the benchmark, it must fail and print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e", "--smoke"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
