"""Shared fixtures for the benchmark suite.

Scale selection: set ``RTSP_BENCH_SCALE`` to ``small`` (default),
``medium``, or ``paper`` (the paper's full 50-server / 1000-object
setup; budget roughly an hour for the whole suite at that scale).

Every figure benchmark writes its regenerated table to
``benchmarks/results/<figure>.txt`` so the paper-shaped output survives
pytest's output capture.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.experiments.config import get_scale

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def bench_scale():
    """The experiment scale benchmarks run at (env: RTSP_BENCH_SCALE)."""
    return get_scale(os.environ.get("RTSP_BENCH_SCALE", "small"))


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    """Directory collecting the regenerated figure tables."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
