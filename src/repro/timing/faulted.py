"""The discrete-event loop of :mod:`repro.timing`, with fault injection.

:func:`simulate_with_faults` list-schedules a sequential schedule's
dependency DAG (see :mod:`repro.timing.dag`) onto servers with a bounded
number of concurrent incoming/outgoing transfers, and injects three fault
primitives:

* **transfer failures** — the ``n``-th transfer *started* (a global
  attempt counter, so retried transfers in later repair rounds get fresh
  indices) occupies its link for the full duration and then fails,
  producing no replica;
* **server crashes** — at an absolute simulated time a server loses every
  replica it holds (recorded as synthetic ``Delete`` actions with status
  ``"lost"``) and every in-flight transfer is aborted;
* **link slowdowns** — from an absolute time onward, transfers *started*
  on a directed link take ``factor`` times longer (already-running
  transfers keep their original finish time).

The loop drives a live :class:`~repro.model.state.SystemState` — actions
are applied at their finish times, so the caller ends up with the exact
mid-flight placement when the simulation halts at the first hard fault
(transfer failure or crash). It is the only event loop in the package:
:func:`repro.timing.executor.simulate_parallel` is this loop with no
faults on a fresh state, so zero-fault transparency holds by
construction.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.model.actions import Action, Transfer
from repro.model.instance import RtspInstance
from repro.model.schedule import Schedule
from repro.model.state import SystemState
from repro.obs.context import current_metrics
from repro.timing.bandwidth import transfer_duration
from repro.timing.dag import build_dependency_dag
from repro.util.errors import ConfigurationError

#: Statuses a :class:`FaultedAction` can carry.
STATUS_OK = "ok"            #: completed and applied to the state
STATUS_FAILED = "failed"    #: ran to its finish time, produced nothing
STATUS_ABORTED = "aborted"  #: cut short when the round halted
STATUS_LOST = "lost"        #: synthetic Delete describing crash data loss

#: Counters a faulted run registers up front, in this order, so its
#: metrics list them even when no fault fires. A fault-free
#: ``simulate_parallel`` run registers only the first.
_FAULTED_COUNTERS = (
    "executor.transfers_started",
    "executor.aborted_transfers",
    "executor.failed_transfers",
    "executor.crash_losses",
)

#: Heap priorities: crashes preempt same-time action completions, so a
#: transfer finishing exactly at the crash instant counts as in-flight.
_CRASH_PRIORITY = 0
_FINISH_PRIORITY = 1


@dataclass(frozen=True)
class FaultedAction:
    """One event of a failure-aware trace.

    ``position`` is the index within the round's schedule, or ``-1`` for
    synthetic crash-loss deletes. ``start``/``finish`` are absolute
    simulated times (the round's ``start_time`` offset included).
    """

    position: int
    action: Action
    start: float
    finish: float
    status: str

    @property
    def duration(self) -> float:
        return self.finish - self.start

    @property
    def applied(self) -> bool:
        """Whether this event mutated the system state."""
        return self.status in (STATUS_OK, STATUS_LOST)


@dataclass(frozen=True)
class FaultedResult:
    """Outcome of one failure-aware simulation round.

    Attributes
    ----------
    trace:
        Events in state-application order (ok/lost entries replay
        stepwise-valid against the round's starting state).
    stop_time:
        Absolute time the round ended — the last finish when
        ``completed``, the detection time of the hard fault otherwise.
    completed:
        True iff every scheduled action finished successfully.
    failure:
        Human-readable description of the hard fault, or ``None``.
    crash_fired:
        The ``(time, server)`` crash consumed this round, if any.
    failed_attempt:
        Global attempt index of the transfer that failed, if any.
    attempts:
        Number of transfers *started* this round (advances the caller's
        global attempt counter).
    wasted_cost:
        Implementation cost spent on failed transfers (full cost) plus
        the pro-rata cost of aborted in-flight transfers.
    """

    trace: Tuple[FaultedAction, ...]
    stop_time: float
    completed: bool
    failure: Optional[str]
    crash_fired: Optional[Tuple[float, int]]
    failed_attempt: Optional[int]
    attempts: int
    wasted_cost: float


def _slowdown_factor(
    slowdowns: Sequence[Tuple[float, int, int, float]],
    target: int,
    source: int,
    now: float,
) -> float:
    """Product of active slowdown factors on the directed link, at ``now``."""
    factor = 1.0
    for at_time, slow_target, slow_source, slow_factor in slowdowns:
        if slow_target == target and slow_source == source and at_time <= now:
            factor *= slow_factor
    return factor


def _durations(
    actions: Sequence[Action], instance: RtspInstance, bandwidths: np.ndarray
) -> List[float]:
    """Fault-free duration of each action (deletions take no time)."""
    sizes = instance.sizes
    return [
        transfer_duration(
            bandwidths, float(sizes[action.obj]), action.target, action.source
        )
        if isinstance(action, Transfer)
        else 0.0
        for action in actions
    ]


def simulate_with_faults(
    schedule: Schedule,
    instance: RtspInstance,
    bandwidths: np.ndarray,
    state: SystemState,
    fail_attempts: AbstractSet[int] = frozenset(),
    crashes: Sequence[Tuple[float, int]] = (),
    slowdowns: Sequence[Tuple[float, int, int, float]] = (),
    out_slots: int = 1,
    in_slots: int = 1,
    start_time: float = 0.0,
    attempt_offset: int = 0,
) -> FaultedResult:
    """Run ``schedule`` under injected faults, halting at the first hard one.

    ``state`` must be the system state the schedule was planned from; it
    is mutated in place (successful actions at their finish times, crash
    losses at the crash time), so after a halt it holds exactly the
    mid-flight placement a repair engine needs. ``crashes`` only
    contributes its earliest entry (any crash halts the round; later ones
    belong to later rounds); a crash time before ``start_time`` fires
    immediately at ``start_time``.
    """
    registry = current_metrics()
    if registry is not None:
        for name in _FAULTED_COUNTERS:
            registry.counter(name)
    actions = schedule.actions()
    return _event_loop(
        actions,
        build_dependency_dag(actions, instance),
        _durations(actions, instance, bandwidths),
        instance,
        state,
        fail_attempts=fail_attempts,
        crashes=crashes,
        slowdowns=slowdowns,
        out_slots=out_slots,
        in_slots=in_slots,
        start_time=start_time,
        attempt_offset=attempt_offset,
    )


def _event_loop(
    actions: Sequence[Action],
    dag: Sequence[Sequence[int]],
    durations: Sequence[float],
    instance: RtspInstance,
    state: SystemState,
    fail_attempts: AbstractSet[int] = frozenset(),
    crashes: Sequence[Tuple[float, int]] = (),
    slowdowns: Sequence[Tuple[float, int, int, float]] = (),
    out_slots: int = 1,
    in_slots: int = 1,
    start_time: float = 0.0,
    attempt_offset: int = 0,
) -> FaultedResult:
    """List-schedule ``dag`` (successor lists by position in ``actions``).

    Ready actions start as soon as their dependencies finished and both
    endpoints have a free slot (the dummy server is unconstrained — an
    archival tier serving many streams); ties break by schedule
    position, so the policy is deterministic. Each action is applied to
    ``state`` at its finish time, which raises
    :class:`~repro.util.errors.InvalidActionError` on an invalid
    schedule.
    """
    if out_slots < 1 or in_slots < 1:
        raise ConfigurationError("slot counts must be >= 1")
    registry = current_metrics()
    if registry is None:
        c_started = h_queue = h_flight = None
    else:
        c_started = registry.counter("executor.transfers_started")
        h_queue = registry.histogram("executor.queue_depth")
        h_flight = registry.histogram("executor.in_flight")

    def count(name: str) -> None:
        if registry is not None:
            registry.counter(name).value += 1

    n = len(actions)
    indegree = [0] * n
    for successors in dag:
        for succ in successors:
            indegree[succ] += 1
    ready = [node for node in range(n) if indegree[node] == 0]
    heapq.heapify(ready)

    dummy = instance.dummy
    out_used = np.zeros(instance.num_servers + 1, dtype=np.int64)
    in_used = np.zeros(instance.num_servers + 1, dtype=np.int64)

    #: (time, priority, payload): payload is a position for finishes and a
    #: server index for the crash sentinel.
    running: List[tuple] = []
    starts: Dict[int, float] = {}
    will_fail: Dict[int, int] = {}  # position -> global attempt index
    trace: List[FaultedAction] = []
    now = start_time
    completed = 0
    attempts = 0
    blocked: List[int] = []  # ready but waiting for a slot

    crash_entry: Optional[Tuple[float, int]] = None
    if crashes:
        earliest = min(crashes)
        crash_entry = (max(float(earliest[0]), start_time), int(earliest[1]))
        heapq.heappush(
            running, (crash_entry[0], _CRASH_PRIORITY, crash_entry[1])
        )

    def action_cost(action: Transfer) -> float:
        return instance.transfer_cost(action.target, action.obj, action.source)

    def abort_running(halt: float) -> float:
        """Mark still-running transfers aborted; return their wasted cost."""
        wasted = 0.0
        for finish, priority, payload in sorted(running):
            if priority != _FINISH_PRIORITY:
                continue
            action = actions[payload]
            start = starts[payload]
            trace.append(
                FaultedAction(payload, action, start, halt, STATUS_ABORTED)
            )
            count("executor.aborted_transfers")
            if isinstance(action, Transfer) and finish > start:
                wasted += action_cost(action) * (halt - start) / (finish - start)
        return wasted

    def try_start(pos: int) -> bool:
        nonlocal attempts
        action = actions[pos]
        if isinstance(action, Transfer):
            i, j = action.target, action.source
            if j != dummy and out_used[j] >= out_slots:
                return False
            if in_used[i] >= in_slots:
                return False
            if j != dummy:
                out_used[j] += 1
            in_used[i] += 1
            duration = durations[pos]
            factor = _slowdown_factor(slowdowns, i, j, now)
            if factor != 1.0:
                duration *= factor
            if c_started is not None:
                c_started.value += 1
            attempt = attempt_offset + attempts
            attempts += 1
            if attempt in fail_attempts:
                will_fail[pos] = attempt
            starts[pos] = now
            heapq.heappush(running, (now + duration, _FINISH_PRIORITY, pos))
            return True
        # deletions complete instantly
        starts[pos] = now
        heapq.heappush(running, (now, _FINISH_PRIORITY, pos))
        return True

    wasted_cost = 0.0
    while completed < n:
        # admit every ready action a slot allows, in schedule order
        still_blocked: List[int] = []
        candidates = sorted(blocked + [heapq.heappop(ready) for _ in range(len(ready))])
        if h_queue is not None:
            h_queue.observe(len(candidates))
        for pos in candidates:
            if not try_start(pos):
                still_blocked.append(pos)
        blocked = still_blocked
        if h_flight is not None:
            h_flight.observe(len(running))

        if not running:
            raise ConfigurationError(
                "execution stalled: dependency DAG has no runnable action"
            )
        now, priority, payload = heapq.heappop(running)

        if priority == _CRASH_PRIORITY:
            server = payload
            wasted_cost += abort_running(now)
            for delete in state.crash_server(server):
                trace.append(FaultedAction(-1, delete, now, now, STATUS_LOST))
                count("executor.crash_losses")
            return FaultedResult(
                trace=tuple(trace),
                stop_time=now,
                completed=False,
                failure=f"server S_{server} crashed at t={now:g}",
                crash_fired=crash_entry,
                failed_attempt=None,
                attempts=attempts,
                wasted_cost=wasted_cost,
            )

        pos = payload
        completed += 1
        action = actions[pos]
        if isinstance(action, Transfer):
            if action.source != dummy:
                out_used[action.source] -= 1
            in_used[action.target] -= 1
            if pos in will_fail:
                trace.append(
                    FaultedAction(pos, action, starts[pos], now, STATUS_FAILED)
                )
                count("executor.failed_transfers")
                wasted_cost += action_cost(action)
                wasted_cost += abort_running(now)
                return FaultedResult(
                    trace=tuple(trace),
                    stop_time=now,
                    completed=False,
                    failure=(
                        f"transfer {action} failed at t={now:g} "
                        f"(attempt #{will_fail[pos]})"
                    ),
                    crash_fired=None,
                    failed_attempt=will_fail[pos],
                    attempts=attempts,
                    wasted_cost=wasted_cost,
                )
        state.apply(action, position=pos)
        trace.append(FaultedAction(pos, action, starts[pos], now, STATUS_OK))
        for succ in dag[pos]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, succ)

    stop_time = max(
        (t.finish for t in trace if t.status == STATUS_OK), default=start_time
    )
    return FaultedResult(
        trace=tuple(trace),
        stop_time=stop_time,
        completed=True,
        failure=None,
        crash_fired=None,
        failed_attempt=None,
        attempts=attempts,
        wasted_cost=wasted_cost,
    )
