"""Transfer timing: makespan analysis of RTSP schedules (extension).

The paper minimises *communication cost* and explicitly defers timing:
"as part of our future work we plan to study RTSP when X_new must be
reached within a time deadline" (§2.2). This subpackage builds that
study's substrate:

* :mod:`repro.timing.bandwidth` — link bandwidth models,
* :mod:`repro.timing.dag` — a conservative dependency DAG extracted from
  a sequential schedule (any topological execution order is valid),
* :mod:`repro.timing.faulted` — the package's one discrete-event loop:
  it executes a schedule with per-server transfer-slot constraints and
  injected faults (transfer failures, server crashes, link slowdowns)
  feeding :mod:`repro.robust`,
* :mod:`repro.timing.executor` — that loop with no faults, reporting
  makespan, critical path and per-action start/finish times,
* :mod:`repro.timing.deadline` — deadline checks and per-pipeline
  makespan comparison helpers,
* :mod:`repro.timing.gantt` — ASCII Gantt rendering of executions.

Everything here is an *extension* beyond the paper's evaluation and is
benchmarked separately (``benchmarks/test_makespan.py``).
"""

from repro.timing.bandwidth import bandwidths_from_costs, uniform_bandwidths
from repro.timing.dag import build_dependency_dag, critical_path_length
from repro.timing.executor import (
    ExecutionResult,
    sequential_makespan,
    simulate_parallel,
)
from repro.timing.faulted import (
    FaultedAction,
    FaultedResult,
    simulate_with_faults,
)
from repro.timing.deadline import meets_deadline, makespan_by_pipeline
from repro.timing.gantt import render_gantt

__all__ = [
    "bandwidths_from_costs",
    "uniform_bandwidths",
    "build_dependency_dag",
    "critical_path_length",
    "ExecutionResult",
    "sequential_makespan",
    "simulate_parallel",
    "FaultedAction",
    "FaultedResult",
    "simulate_with_faults",
    "meets_deadline",
    "makespan_by_pipeline",
    "render_gantt",
]
