"""Fault-free execution of RTSP schedules.

:func:`simulate_parallel` list-schedules a sequential schedule's
dependency DAG onto a system where each server can run a bounded number
of concurrent incoming/outgoing transfers ("NIC slots"). It is the event
loop of :mod:`repro.timing.faulted` run with no faults on a fresh
:class:`~repro.model.state.SystemState`, so it shares that loop's
admission order, tie-breaking and float arithmetic by construction, and
an invalid schedule raises
:class:`~repro.util.errors.InvalidActionError` when its first invalid
action finishes.

Deletions are instantaneous (metadata operations); transfers take
``size / bandwidth`` time units.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import List

import numpy as np

from repro.model.instance import RtspInstance
from repro.model.schedule import Schedule
from repro.model.state import SystemState
from repro.timing.dag import build_dependency_dag, critical_path_length
from repro.timing.faulted import FaultedAction, _durations, _event_loop


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of a simulated execution.

    ``trace`` holds one ``"ok"`` :class:`FaultedAction` per scheduled
    action, in schedule-position order.
    """

    makespan: float
    trace: List[FaultedAction]
    critical_path: float
    sequential_time: float

    @property
    def speedup(self) -> float:
        """Sequential time over parallel makespan (1.0 when serialised)."""
        if self.makespan <= 0:
            return 1.0
        return self.sequential_time / self.makespan


def sequential_makespan(
    schedule: Schedule, instance: RtspInstance, bandwidths: np.ndarray
) -> float:
    """Total time when actions run strictly one after another."""
    return float(sum(_durations(schedule.actions(), instance, bandwidths)))


def simulate_parallel(
    schedule: Schedule,
    instance: RtspInstance,
    bandwidths: np.ndarray,
    out_slots: int = 1,
    in_slots: int = 1,
) -> ExecutionResult:
    """List-schedule the dependency DAG with per-server NIC constraints.

    Parameters
    ----------
    out_slots, in_slots:
        Maximum concurrent outgoing / incoming transfers per server (the
        dummy server is unconstrained — an archival tier serving many
        streams).

    Ready actions start as soon as their dependencies finished and both
    endpoints have a free slot; ties break by schedule position, making
    the policy deterministic.
    """
    actions = schedule.actions()
    dag = build_dependency_dag(actions, instance)
    durations = _durations(actions, instance, bandwidths)
    run = _event_loop(
        actions,
        dag,
        durations,
        instance,
        SystemState(instance),
        out_slots=out_slots,
        in_slots=in_slots,
    )
    return ExecutionResult(
        makespan=run.stop_time,
        trace=sorted(run.trace, key=attrgetter("position")),
        critical_path=critical_path_length(dag, durations),
        sequential_time=float(sum(durations)),
    )
