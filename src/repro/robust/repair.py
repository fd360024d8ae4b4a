"""Online schedule repair under injected faults.

:class:`RepairEngine` executes a pipeline's schedule on the failure-aware
simulator and, every time a hard fault halts the run, (a) captures the
mid-flight :class:`~repro.model.state.SystemState`, (b) extracts the
residual RTSP instance (current placement ``->`` original ``X_new``),
(c) re-plans the remainder with the same pipeline under a bounded
retry/backoff policy, and (d) continues until the state reaches ``X_new``
exactly.

Graceful degradation falls out of the paper's dummy-server construction:
when a crash wipes the last real replicator of an object, the residual
instance simply has no old source for it and every builder emits a dummy
transfer — the extended problem stays solvable whenever ``X_new`` fits
its capacities, so a repaired execution *provably* terminates at
``X_new`` (the fault plan is finite and each repair round consumes at
least one fault).

Everything is deterministic per ``(fault plan, pipeline, seed)``: round
``r``'s re-plan uses the derived seed ``derive_seed(seed, "repair", r)``
and the simulator's tie-breaking is deterministic, so repeated runs
produce identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.pipeline import Pipeline, build_pipeline
from repro.model.actions import Transfer
from repro.model.instance import RtspInstance
from repro.model.schedule import Schedule
from repro.model.state import SystemState
from repro.obs.context import current_metrics, current_tracer
from repro.robust.faults import FaultPlan
from repro.timing.bandwidth import bandwidths_from_costs
from repro.timing.executor import simulate_parallel
from repro.timing.faulted import (
    STATUS_LOST,
    STATUS_OK,
    FaultedAction,
    simulate_with_faults,
)
from repro.util.errors import InvalidScheduleError, RepairExhaustedError
from repro.util.rng import derive_seed


@dataclass(frozen=True)
class RepairPolicy:
    """Bounds and pacing of the repair loop.

    ``max_rounds=None`` (the default) auto-bounds to the plan's hard-fault
    count plus one, which is always sufficient; a smaller explicit bound
    makes :class:`~repro.util.errors.RepairExhaustedError` reachable.
    ``backoff_base > 0`` charges simulated downtime before the ``r``-th
    re-plan: ``backoff_base * backoff_factor ** (r - 1)``.
    """

    max_rounds: Optional[int] = None
    backoff_base: float = 0.0
    backoff_factor: float = 2.0

    def bound(self, plan: FaultPlan) -> int:
        """The effective round bound for ``plan``."""
        if self.max_rounds is not None:
            return self.max_rounds
        return plan.num_hard_faults + 1

    def backoff(self, round_index: int) -> float:
        """Simulated delay charged before re-plan number ``round_index``."""
        if self.backoff_base <= 0:
            return 0.0
        return self.backoff_base * self.backoff_factor ** (round_index - 1)


@dataclass
class RepairReport:
    """Everything a repaired execution produced.

    ``events`` is the full chronological log across all rounds: ``ok``
    actions at their finish times, ``failed``/``aborted`` attempts, and
    ``lost`` synthetic deletes from crashes. Replaying the applied subset
    (``ok`` + ``lost``) from ``X_old`` reproduces the final state — see
    :meth:`applied_schedule` / :meth:`revalidate`.
    """

    completed: bool
    rounds: int
    makespan: float
    events: List[FaultedAction] = field(default_factory=list)
    total_cost: float = 0.0
    wasted_cost: float = 0.0
    dummy_transfers: int = 0
    fault_free_cost: float = 0.0
    fault_free_makespan: float = 0.0
    fault_free_dummy_transfers: int = 0
    plan: Optional[FaultPlan] = None
    #: Re-plans actually performed (== ``rounds`` in the current loop, but
    #: kept separate so future policies can retry without re-planning).
    replans: int = 0
    #: Total simulated backoff downtime charged before re-plans.
    backoff_total: float = 0.0

    def applied_schedule(self) -> Schedule:
        """The applied (``ok`` + ``lost``) events as a plain schedule."""
        return Schedule(e.action for e in self.events if e.applied)

    def revalidate(self, instance: RtspInstance, strict: bool = False) -> bool:
        """Whether the applied event log replays from ``X_old`` to ``X_new``.

        With ``strict=True`` the check runs through the independent
        invariant oracle (:func:`repro.exact.validate.check_invariants`)
        instead of the model-layer replay.
        """
        if strict:
            from repro.exact.validate import check_invariants

            return check_invariants(instance, self.applied_schedule()).ok
        return self.applied_schedule().is_valid(instance)

    def require_valid(self, instance: RtspInstance, strict: bool = False) -> None:
        """Raise unless the applied event log re-validates."""
        if strict:
            from repro.exact.validate import assert_invariants

            assert_invariants(
                instance, self.applied_schedule(), context="repaired trace"
            )
            return
        self.applied_schedule().require_valid(instance)


class RepairEngine:
    """Fault-injected execution with online re-planning.

    Parameters
    ----------
    pipeline:
        A :class:`~repro.core.pipeline.Pipeline` or a spec string like
        ``"GOLCF+H1+H2"``; the same pipeline plans round 0 and every
        repair round.
    policy:
        Retry/backoff bounds (see :class:`RepairPolicy`).
    bandwidths:
        Link bandwidth matrix; defaults to
        ``bandwidths_from_costs(instance.costs)`` per execution.
    """

    def __init__(
        self,
        pipeline: Union[str, Pipeline],
        policy: RepairPolicy = RepairPolicy(),
        bandwidths: Optional[np.ndarray] = None,
        out_slots: int = 1,
        in_slots: int = 1,
    ) -> None:
        self.pipeline = (
            build_pipeline(pipeline) if isinstance(pipeline, str) else pipeline
        )
        self.policy = policy
        self.bandwidths = bandwidths
        self.out_slots = out_slots
        self.in_slots = in_slots

    def execute(
        self,
        instance: RtspInstance,
        plan: FaultPlan,
        rng: int = 0,
        validate=True,
    ) -> RepairReport:
        """Run ``instance``'s transition under ``plan``, repairing online.

        ``rng`` must be an integer seed (per-round seeds are derived from
        it, which is what makes re-execution deterministic). ``validate``
        re-checks the applied event log before returning: ``True`` /
        ``"basic"`` replays through the model layer, ``"strict"`` runs
        the independent invariant oracle from
        :mod:`repro.exact.validate`, ``None``/``False`` skips the check.
        """
        plan.check_servers(instance.num_servers)
        seed = int(rng)
        registry = current_metrics()
        tracer = current_tracer()
        bandwidths = (
            bandwidths_from_costs(instance.costs)
            if self.bandwidths is None
            else self.bandwidths
        )

        # Fault-free baseline for overhead metrics: same seed, same
        # pipeline, untouched simulator — byte-identical to what the
        # non-robust path produces.
        baseline_schedule = self.pipeline.run(instance, rng=seed)
        baseline = simulate_parallel(
            baseline_schedule,
            instance,
            bandwidths,
            out_slots=self.out_slots,
            in_slots=self.in_slots,
        )

        report = RepairReport(
            completed=False,
            rounds=0,
            makespan=0.0,
            fault_free_cost=baseline_schedule.cost(instance),
            fault_free_makespan=baseline.makespan,
            fault_free_dummy_transfers=baseline_schedule.count_dummy_transfers(
                instance
            ),
            plan=plan,
        )

        state = SystemState(instance)
        schedule = baseline_schedule
        fail_attempts = plan.fail_attempts()
        remaining_crashes = plan.crash_events()
        slowdowns = plan.slowdown_events()
        clock = 0.0
        attempts = 0
        max_rounds = self.policy.bound(plan)

        while True:
            with tracer.span("repair.round", round=report.rounds):
                result = simulate_with_faults(
                    schedule,
                    instance,
                    bandwidths,
                    state,
                    fail_attempts=fail_attempts,
                    crashes=remaining_crashes,
                    slowdowns=slowdowns,
                    out_slots=self.out_slots,
                    in_slots=self.in_slots,
                    start_time=clock,
                    attempt_offset=attempts,
                )
            report.events.extend(result.trace)
            report.wasted_cost += result.wasted_cost
            attempts += result.attempts
            clock = result.stop_time

            if result.crash_fired is not None:
                remaining_crashes.pop(0)
            if result.completed:
                # Crashes outliving the schedule still fire: the system
                # reached X_new, loses replicas, and must repair again.
                if remaining_crashes:
                    crash_time, server = remaining_crashes.pop(0)
                    clock = max(clock, crash_time)
                    for delete in state.crash_server(server):
                        report.events.append(
                            FaultedAction(-1, delete, clock, clock, STATUS_LOST)
                        )
                elif state.matches(instance.x_new):
                    break
                else:  # pragma: no cover - defensive: builders guarantee X_new
                    raise InvalidScheduleError(
                        "repaired execution completed without reaching X_new"
                    )

            report.rounds += 1
            if registry is not None:
                registry.counter("repair.rounds").inc()
            tracer.event(
                "repair.round",
                round=report.rounds,
                reason=str(result.failure),
                attempts=attempts,
            )
            if report.rounds > max_rounds:
                tracer.event(
                    "repair.exhausted",
                    rounds=report.rounds,
                    max_rounds=max_rounds,
                    reason=str(result.failure),
                )
                raise RepairExhaustedError(
                    f"gave up after {max_rounds} repair rounds "
                    f"(last failure: {result.failure})"
                )
            backoff = self.policy.backoff(report.rounds)
            if backoff > 0:
                report.backoff_total += backoff
                if registry is not None:
                    registry.counter("repair.backoff_waits").inc()
            clock += backoff
            with tracer.span(
                "repair.replan", round=report.rounds, reason=result.failure
            ):
                schedule = self.pipeline.replan(
                    instance,
                    state.placement(),
                    rng=derive_seed(seed, "repair", report.rounds),
                )
            report.replans += 1
            if registry is not None:
                registry.counter("repair.replans").inc()

        report.completed = True
        report.makespan = clock
        for event in report.events:
            if event.status == STATUS_OK and isinstance(event.action, Transfer):
                report.total_cost += instance.transfer_cost(
                    event.action.target, event.action.obj, event.action.source
                )
                if event.action.source == instance.dummy:
                    report.dummy_transfers += 1
        if validate:
            report.require_valid(instance, strict=(validate == "strict"))
        return report


def execute_with_repair(
    instance: RtspInstance,
    plan: FaultPlan,
    pipeline: Union[str, Pipeline] = "GOLCF+H1+H2",
    rng: int = 0,
    **engine_kwargs,
) -> RepairReport:
    """One-shot convenience wrapper around :class:`RepairEngine`."""
    return RepairEngine(pipeline, **engine_kwargs).execute(
        instance, plan, rng=rng
    )
