"""Versioned JSON (de)serialization of instances, schedules, fault plans
and failure traces."""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence, Union

import numpy as np

from repro.model.actions import Action, Delete, Transfer
from repro.model.instance import RtspInstance
from repro.model.schedule import Schedule
from repro.robust.faults import (
    FaultPlan,
    LinkSlowdown,
    ServerCrash,
    TransferFault,
)
from repro.timing.faulted import FaultedAction
from repro.util.errors import ConfigurationError
from repro.util.validation import (
    binary_rows_matrix,
    decode_binary_rows,
    decode_number_list,
)

INSTANCE_FORMAT = "rtsp-instance/1"
SCHEDULE_FORMAT = "rtsp-schedule/1"
FAULT_PLAN_FORMAT = "rtsp-fault-plan/1"
FAILURE_TRACE_FORMAT = "rtsp-failure-trace/1"

PathLike = Union[str, "os.PathLike[str]"]  # noqa: F821 - doc only


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------
def instance_to_dict(instance: RtspInstance) -> Dict[str, Any]:
    """Serialise an instance (extended cost matrix included)."""
    return {
        "format": INSTANCE_FORMAT,
        "num_servers": instance.num_servers,
        "num_objects": instance.num_objects,
        "sizes": instance.sizes.tolist(),
        "capacities": instance.capacities.tolist(),
        "costs": instance.costs.tolist(),
        "x_old": instance.x_old.tolist(),
        "x_new": instance.x_new.tolist(),
    }


def instance_from_dict(data: Dict[str, Any]) -> RtspInstance:
    """Deserialise (and fully re-validate) an instance."""
    if data.get("format") != INSTANCE_FORMAT:
        raise ConfigurationError(
            f"expected format {INSTANCE_FORMAT!r}, got {data.get('format')!r}"
        )
    try:
        costs = data["costs"]
        if not isinstance(costs, list) or not costs:
            raise ConfigurationError("costs must be a non-empty list of rows")
        return RtspInstance.create(
            # Strict numbers, as for a placement delta: "1" and JSON
            # booleans are errors rather than a cast to 1.0.
            sizes=np.asarray(decode_number_list(data["sizes"], "sizes")),
            capacities=np.asarray(
                decode_number_list(data["capacities"], "capacities")
            ),
            costs=np.asarray(
                [
                    decode_number_list(row, f"costs[{i}]")
                    for i, row in enumerate(costs)
                ]
            ),
            # Strict 0/1 rows, as for a placement delta: 0.4 and JSON
            # booleans are errors rather than a 0 or a 1.
            x_old=binary_rows_matrix(decode_binary_rows(data["x_old"], "X_old")[1]),
            x_new=binary_rows_matrix(decode_binary_rows(data["x_new"], "X_new")[1]),
        )
    except KeyError as missing:
        raise ConfigurationError(f"instance JSON missing key {missing}") from None


def save_instance(instance: RtspInstance, path) -> None:
    """Write an instance to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(instance), fh)


def load_instance(path) -> RtspInstance:
    """Read an instance from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------
def _encode_action(action: Action):
    if isinstance(action, Transfer):
        return ["T", action.target, action.obj, action.source]
    if isinstance(action, Delete):
        return ["D", action.server, action.obj]
    raise ConfigurationError(f"unknown action type {type(action).__name__}")


def _decode_action(row) -> Action:
    if not row:
        raise ConfigurationError("empty action row")
    kind = row[0]
    if kind == "T":
        if len(row) != 4:
            raise ConfigurationError(f"transfer row needs 4 fields: {row!r}")
        return Transfer(int(row[1]), int(row[2]), int(row[3]))
    if kind == "D":
        if len(row) != 3:
            raise ConfigurationError(f"delete row needs 3 fields: {row!r}")
        return Delete(int(row[1]), int(row[2]))
    raise ConfigurationError(f"unknown action kind {kind!r}")


def schedule_to_dict(schedule: Schedule) -> Dict[str, Any]:
    """Serialise a schedule to compact action rows."""
    return {
        "format": SCHEDULE_FORMAT,
        "actions": [_encode_action(a) for a in schedule],
    }


def schedule_from_dict(data: Dict[str, Any]) -> Schedule:
    """Deserialise a schedule (structure only; validate against an
    instance with ``schedule.validate`` separately)."""
    if data.get("format") != SCHEDULE_FORMAT:
        raise ConfigurationError(
            f"expected format {SCHEDULE_FORMAT!r}, got {data.get('format')!r}"
        )
    try:
        rows = data["actions"]
    except KeyError:
        raise ConfigurationError("schedule JSON missing 'actions'") from None
    return Schedule(_decode_action(row) for row in rows)


def save_schedule(schedule: Schedule, path) -> None:
    """Write a schedule to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schedule_to_dict(schedule), fh)


def load_schedule(path) -> Schedule:
    """Read a schedule from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return schedule_from_dict(json.load(fh))


# ----------------------------------------------------------------------
# fault plans
# ----------------------------------------------------------------------
def fault_plan_to_dict(plan: FaultPlan) -> Dict[str, Any]:
    """Serialise a fault plan to compact event rows."""
    return {
        "format": FAULT_PLAN_FORMAT,
        "rate": plan.rate,
        "seed": plan.seed,
        "horizon": plan.horizon,
        "transfer_faults": [f.attempt for f in plan.transfer_faults],
        "crashes": [[c.time, c.server] for c in plan.crashes],
        "slowdowns": [
            [s.time, s.target, s.source, s.factor] for s in plan.slowdowns
        ],
    }


def _plan_int(value: Any) -> int:
    """An integer entry; ``int()`` would truncate ``1.7`` and ``True``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _plan_number(value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def fault_plan_from_dict(data: Dict[str, Any]) -> FaultPlan:
    """Deserialise (and re-validate) a fault plan."""
    if data.get("format") != FAULT_PLAN_FORMAT:
        raise ConfigurationError(
            f"expected format {FAULT_PLAN_FORMAT!r}, got {data.get('format')!r}"
        )
    try:
        return FaultPlan(
            transfer_faults=tuple(
                TransferFault(_plan_int(a)) for a in data["transfer_faults"]
            ),
            crashes=tuple(
                ServerCrash(_plan_number(t), _plan_int(s))
                for t, s in data["crashes"]
            ),
            slowdowns=tuple(
                LinkSlowdown(
                    _plan_number(t), _plan_int(i), _plan_int(j), _plan_number(f)
                )
                for t, i, j, f in data["slowdowns"]
            ),
            rate=_plan_number(data.get("rate", 0.0)),
            seed=_plan_int(data.get("seed", 0)),
            horizon=_plan_number(data.get("horizon", 1.0)),
        )
    except KeyError as missing:
        raise ConfigurationError(
            f"fault-plan JSON missing key {missing}"
        ) from None
    except (TypeError, ValueError) as exc:
        # A null, a string, a bool, a non-integral number where an integer
        # belongs, or a short row.
        raise ConfigurationError(f"malformed fault-plan entry: {exc}") from exc
    except OverflowError:
        raise ConfigurationError(
            "fault-plan numbers must be finite, got an int beyond the double range"
        ) from None


def save_fault_plan(plan: FaultPlan, path) -> None:
    """Write a fault plan to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fault_plan_to_dict(plan), fh)


def load_fault_plan(path) -> FaultPlan:
    """Read a fault plan from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return fault_plan_from_dict(json.load(fh))


# ----------------------------------------------------------------------
# failure traces
# ----------------------------------------------------------------------
def failure_trace_to_dict(events: Sequence[FaultedAction]) -> Dict[str, Any]:
    """Serialise a failure-aware event log (e.g. ``RepairReport.events``)."""
    return {
        "format": FAILURE_TRACE_FORMAT,
        "events": [
            [e.status, e.position, e.start, e.finish, _encode_action(e.action)]
            for e in events
        ],
    }


def failure_trace_from_dict(data: Dict[str, Any]) -> List[FaultedAction]:
    """Deserialise a failure trace back into :class:`FaultedAction` rows."""
    if data.get("format") != FAILURE_TRACE_FORMAT:
        raise ConfigurationError(
            f"expected format {FAILURE_TRACE_FORMAT!r}, got {data.get('format')!r}"
        )
    try:
        rows = data["events"]
    except KeyError:
        raise ConfigurationError("failure-trace JSON missing 'events'") from None
    out: List[FaultedAction] = []
    for row in rows:
        if len(row) != 5:
            raise ConfigurationError(f"trace row needs 5 fields: {row!r}")
        status, position, start, finish, action_row = row
        out.append(
            FaultedAction(
                position=int(position),
                action=_decode_action(action_row),
                start=float(start),
                finish=float(finish),
                status=str(status),
            )
        )
    return out


def save_failure_trace(events: Sequence[FaultedAction], path) -> None:
    """Write a failure trace to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(failure_trace_to_dict(events), fh)


def load_failure_trace(path) -> List[FaultedAction]:
    """Read a failure trace from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return failure_trace_from_dict(json.load(fh))
