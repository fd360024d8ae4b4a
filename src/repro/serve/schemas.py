"""Versioned JSON request/response schemas for the planning service.

Every payload that crosses the HTTP boundary carries a ``format`` tag
(``rtsp-plan-request/1``, ``rtsp-plan-response/1``, ...), mirroring the
``rtsp-instance/1`` / ``rtsp-schedule/1`` interchange formats in
:mod:`repro.io`. Parsing is strict: unknown keys, wrong types and
missing fields all raise :class:`SchemaError`, which the transport maps
to a 400 so malformed clients fail loudly instead of planning garbage.

A plan request carries either a full inline ``instance`` or a
``delta`` — new sizes/capacities/placements against a cost matrix the
server already holds (keyed by its canonical topology hash, see
:func:`repro.serve.cache.topology_hash`). Deltas are how a deployment
tool re-plans continuously without re-uploading the ``O(M^2)`` matrix
on every placement epoch.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np
import orjson

from repro.io import instance_from_dict, instance_to_dict
from repro.model.instance import RtspInstance
from repro.util.errors import ConfigurationError
from repro.util.validation import (
    binary_rows_matrix,
    decode_binary_rows,
    decode_number_list,
)

__all__ = [
    "PLAN_REQUEST_FORMAT",
    "PLAN_RESPONSE_FORMAT",
    "BATCH_REQUEST_FORMAT",
    "BATCH_RESPONSE_FORMAT",
    "VALIDATE_REQUEST_FORMAT",
    "VALIDATE_RESPONSE_FORMAT",
    "REPAIR_REQUEST_FORMAT",
    "REPAIR_RESPONSE_FORMAT",
    "JOB_FORMAT",
    "ERROR_FORMAT",
    "HEALTH_FORMAT",
    "SchemaError",
    "PlacementDelta",
    "PlanRequest",
    "ValidateRequest",
    "RepairRequest",
    "canonical_json",
    "wire_json",
    "error_payload",
    "plan_request_from_dict",
    "plan_request_to_dict",
    "batch_request_from_dict",
    "validate_request_from_dict",
    "validate_request_to_dict",
    "repair_request_from_dict",
    "repair_request_to_dict",
    "check_response_format",
]

PLAN_REQUEST_FORMAT = "rtsp-plan-request/1"
PLAN_RESPONSE_FORMAT = "rtsp-plan-response/1"
BATCH_REQUEST_FORMAT = "rtsp-plan-batch-request/1"
BATCH_RESPONSE_FORMAT = "rtsp-plan-batch-response/1"
VALIDATE_REQUEST_FORMAT = "rtsp-validate-request/1"
VALIDATE_RESPONSE_FORMAT = "rtsp-validate-response/1"
REPAIR_REQUEST_FORMAT = "rtsp-repair-request/1"
REPAIR_RESPONSE_FORMAT = "rtsp-repair-response/1"
JOB_FORMAT = "rtsp-job/1"
ERROR_FORMAT = "rtsp-error/1"
HEALTH_FORMAT = "rtsp-health/1"

#: Validation modes a request may ask for (``None`` means none).
VALIDATE_MODES = (None, "basic", "strict")

#: Request modes: ``sync`` blocks until the schedule is ready, ``async``
#: returns a 202 job handle to poll via ``GET /v1/jobs/{id}``.
PLAN_MODES = ("sync", "async")


class SchemaError(ConfigurationError):
    """A request payload failed schema validation (transport: 400)."""


def canonical_json(payload: Mapping[str, Any]) -> str:
    """The canonical byte representation of a JSON payload.

    Sorted keys, compact separators: two payloads are byte-identical
    exactly when this string matches. The differential tests (and the
    plan cache) compare responses through this function.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


_WIRE_OPTIONS = (
    orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_NON_STR_KEYS
)


def wire_json(payload: Any) -> bytes:
    """A payload as an HTTP body: compact UTF-8 JSON, keys sorted.

    Encoded with orjson. It writes numpy scalars and non-string keys as
    the stdlib does, and non-ASCII text as raw UTF-8. NaN and the
    infinities become ``null``, and an integer outside 64 bits raises
    ``TypeError``, so the body never holds a token the service's parser
    rejects. The bytes may differ from :func:`canonical_json` (``1e16``
    for ``1e+16``), but they decode to the same value.
    """
    return orjson.dumps(payload, option=_WIRE_OPTIONS)


def error_payload(status: int, code: str, message: str) -> Dict[str, Any]:
    """The ``rtsp-error/1`` body every non-2xx response carries."""
    return {
        "format": ERROR_FORMAT,
        "status": int(status),
        "error": code,
        "message": message,
    }


# ----------------------------------------------------------------------
# strict field helpers
# ----------------------------------------------------------------------
def _require_mapping(data: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise SchemaError(f"{what} must be a JSON object, got {type(data).__name__}")
    return data


def _check_format(data: Mapping[str, Any], expected: str) -> None:
    got = data.get("format")
    if got != expected:
        raise SchemaError(f"expected format {expected!r}, got {got!r}")


def _reject_unknown(data: Mapping[str, Any], allowed: frozenset, what: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise SchemaError(f"{what} has unknown keys: {', '.join(unknown)}")


def _opt_str(data: Mapping[str, Any], key: str, default: Optional[str]) -> Any:
    value = data.get(key, default)
    if value is not None and not isinstance(value, str):
        raise SchemaError(f"{key} must be a string, got {type(value).__name__}")
    return value


def _opt_int(
    data: Mapping[str, Any], key: str, default: Optional[int], low: int = 0
) -> Any:
    """An integer in ``[low, 2**64)``. A larger literal parses as a float
    on the wire, and a seed below 0 would fail inside numpy."""
    value = data.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{key} must be an integer, got {value!r}")
    if not low <= value < 1 << 64:
        raise SchemaError(f"{key} must be in [{low}, 2**64), got {value}")
    return value


def _opt_number(data: Mapping[str, Any], key: str) -> Optional[float]:
    value = data.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{key} must be a finite number") from None


# ----------------------------------------------------------------------
# plan requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlacementDelta:
    """A re-plan against a cost matrix the server already caches.

    ``topology`` is the canonical hash returned in earlier plan
    responses; the remaining fields replace the instance's sizes,
    capacities and placements. The server rebuilds the full
    :class:`~repro.model.instance.RtspInstance` (and re-validates it)
    from its cached matrix.
    """

    topology: str
    sizes: List[float]
    capacities: List[float]
    x_old: List[List[int]]
    x_new: List[List[int]]
    #: ``x_old`` and ``x_new`` one ``bytes`` per row, as
    #: :func:`decode_binary_rows` packed them for :meth:`from_dict`, so
    #: :meth:`realize` does not pack the rows again; ``None`` for a
    #: delta built from its fields.
    _packed: Optional[Tuple[List[bytes], List[bytes]]] = field(
        default=None, compare=False, repr=False
    )

    _KEYS = frozenset({"topology", "sizes", "capacities", "x_old", "x_new"})

    @classmethod
    def from_dict(cls, data: Any) -> "PlacementDelta":
        data = _require_mapping(data, "delta")
        _reject_unknown(data, cls._KEYS, "delta")
        topology = data.get("topology")
        if not isinstance(topology, str) or not topology:
            raise SchemaError("delta.topology must be a non-empty string")
        sizes = decode_number_list(data.get("sizes"), "delta.sizes", SchemaError)
        capacities = decode_number_list(
            data.get("capacities"), "delta.capacities", SchemaError
        )
        x_old, old_packed = decode_binary_rows(
            data.get("x_old"), "delta.x_old", SchemaError
        )
        x_new, new_packed = decode_binary_rows(
            data.get("x_new"), "delta.x_new", SchemaError
        )
        return cls(
            topology=topology,
            sizes=sizes,
            capacities=capacities,
            x_old=x_old,
            x_new=x_new,
            _packed=(old_packed, new_packed),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "topology": self.topology,
            "sizes": self.sizes,
            "capacities": self.capacities,
            "x_old": self.x_old,
            "x_new": self.x_new,
        }

    def realize(self, costs: np.ndarray) -> RtspInstance:
        """Build (and fully re-validate) the instance against ``costs``."""
        x_old, x_new = self._packed or (self.x_old, self.x_new)
        try:
            return RtspInstance.create(
                sizes=np.asarray(self.sizes, dtype=np.float64),
                capacities=np.asarray(self.capacities, dtype=np.float64),
                costs=np.asarray(costs, dtype=np.float64),
                x_old=binary_rows_matrix(x_old),
                x_new=binary_rows_matrix(x_new),
            )
        except ConfigurationError:
            raise
        except ValueError as exc:
            raise SchemaError(f"delta does not form a valid instance: {exc}") from exc


@dataclass(frozen=True)
class PlanRequest:
    """One ``POST /v1/plan`` submission, parsed and type-checked."""

    pipeline: str = "GOLCF+H1+H2+OP1"
    seed: int = 0
    mode: str = "sync"
    shards: Optional[int] = None
    validate: Optional[str] = None
    timeout_seconds: Optional[float] = None
    instance: Optional[RtspInstance] = None
    delta: Optional[PlacementDelta] = None

    _KEYS = frozenset(
        {
            "format",
            "pipeline",
            "seed",
            "mode",
            "shards",
            "validate",
            "timeout_seconds",
            "instance",
            "delta",
        }
    )


def plan_request_from_dict(data: Any) -> PlanRequest:
    """Parse and strictly validate a ``rtsp-plan-request/1`` payload."""
    data = _require_mapping(data, "plan request")
    _check_format(data, PLAN_REQUEST_FORMAT)
    _reject_unknown(data, PlanRequest._KEYS, "plan request")
    pipeline = _opt_str(data, "pipeline", "GOLCF+H1+H2+OP1")
    if not pipeline:
        raise SchemaError("pipeline must be a non-empty string")
    seed = _opt_int(data, "seed", 0)
    mode = _opt_str(data, "mode", "sync")
    if mode not in PLAN_MODES:
        raise SchemaError(f"mode must be one of {PLAN_MODES}, got {mode!r}")
    shards = _opt_int(data, "shards", None, low=1)
    validate = _opt_str(data, "validate", None)
    if validate not in VALIDATE_MODES:
        raise SchemaError(
            f"validate must be one of {VALIDATE_MODES}, got {validate!r}"
        )
    timeout = _opt_number(data, "timeout_seconds")
    # NaN fails every comparison, so "> 0" alone would let it through.
    if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
        raise SchemaError(
            f"timeout_seconds must be a finite number > 0, got {timeout}"
        )
    has_instance = data.get("instance") is not None
    has_delta = data.get("delta") is not None
    if has_instance == has_delta:
        raise SchemaError("exactly one of 'instance' and 'delta' is required")
    instance = None
    delta = None
    if has_instance:
        try:
            instance = instance_from_dict(
                _require_mapping(data["instance"], "instance")
            )
        except SchemaError:
            raise
        except ConfigurationError as exc:
            raise SchemaError(f"invalid embedded instance: {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"invalid embedded instance: {exc}") from exc
    else:
        delta = PlacementDelta.from_dict(data["delta"])
    return PlanRequest(
        pipeline=pipeline,
        seed=int(seed) if seed is not None else 0,
        mode=mode,
        shards=shards,
        validate=validate,
        timeout_seconds=timeout,
        instance=instance,
        delta=delta,
    )


def plan_request_to_dict(request: PlanRequest) -> Dict[str, Any]:
    """Serialise a :class:`PlanRequest` back to its wire form."""
    payload: Dict[str, Any] = {
        "format": PLAN_REQUEST_FORMAT,
        "pipeline": request.pipeline,
        "seed": request.seed,
        "mode": request.mode,
    }
    if request.shards is not None:
        payload["shards"] = request.shards
    if request.validate is not None:
        payload["validate"] = request.validate
    if request.timeout_seconds is not None:
        payload["timeout_seconds"] = request.timeout_seconds
    if request.instance is not None:
        payload["instance"] = instance_to_dict(request.instance)
    if request.delta is not None:
        payload["delta"] = request.delta.to_dict()
    return payload


def batch_request_from_dict(data: Any) -> List[PlanRequest]:
    """Parse a ``rtsp-plan-batch-request/1`` into its plan requests.

    The whole batch is parsed up front: one malformed entry rejects the
    batch (the server must not plan half a submission).
    """
    data = _require_mapping(data, "batch request")
    _check_format(data, BATCH_REQUEST_FORMAT)
    _reject_unknown(data, frozenset({"format", "requests"}), "batch request")
    entries = data.get("requests")
    if not isinstance(entries, list) or not entries:
        raise SchemaError("batch request needs a non-empty 'requests' list")
    requests = []
    for index, entry in enumerate(entries):
        try:
            requests.append(plan_request_from_dict(entry))
        except SchemaError as exc:
            raise SchemaError(f"requests[{index}]: {exc}") from exc
    for request in requests:
        if request.mode != "sync":
            raise SchemaError("batch entries must use mode 'sync'")
    return requests


# ----------------------------------------------------------------------
# validate / repair requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ValidateRequest:
    """One ``POST /v1/validate`` submission."""

    instance: RtspInstance
    schedule: Dict[str, Any] = field(default_factory=dict)
    strict: bool = False

    _KEYS = frozenset({"format", "instance", "schedule", "strict"})


def validate_request_from_dict(data: Any) -> ValidateRequest:
    """Parse and strictly validate a ``rtsp-validate-request/1``."""
    data = _require_mapping(data, "validate request")
    _check_format(data, VALIDATE_REQUEST_FORMAT)
    _reject_unknown(data, ValidateRequest._KEYS, "validate request")
    strict = data.get("strict", False)
    if not isinstance(strict, bool):
        raise SchemaError(f"strict must be a boolean, got {strict!r}")
    try:
        instance = instance_from_dict(
            _require_mapping(data.get("instance"), "instance")
        )
    except SchemaError:
        raise
    except ConfigurationError as exc:
        raise SchemaError(f"invalid embedded instance: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid embedded instance: {exc}") from exc
    schedule = _require_mapping(data.get("schedule"), "schedule")
    return ValidateRequest(instance=instance, schedule=dict(schedule), strict=strict)


def validate_request_to_dict(request: ValidateRequest) -> Dict[str, Any]:
    """Serialise a :class:`ValidateRequest` back to its wire form."""
    return {
        "format": VALIDATE_REQUEST_FORMAT,
        "instance": instance_to_dict(request.instance),
        "schedule": request.schedule,
        "strict": request.strict,
    }


@dataclass(frozen=True)
class RepairRequest:
    """One ``POST /v1/repair`` submission."""

    instance: RtspInstance
    fault_plan: Dict[str, Any] = field(default_factory=dict)
    pipeline: str = "GOLCF+H1+H2"
    seed: int = 0
    validate: Optional[str] = "basic"

    _KEYS = frozenset(
        {"format", "instance", "fault_plan", "pipeline", "seed", "validate"}
    )


def repair_request_from_dict(data: Any) -> RepairRequest:
    """Parse and strictly validate a ``rtsp-repair-request/1``."""
    data = _require_mapping(data, "repair request")
    _check_format(data, REPAIR_REQUEST_FORMAT)
    _reject_unknown(data, RepairRequest._KEYS, "repair request")
    pipeline = _opt_str(data, "pipeline", "GOLCF+H1+H2")
    if not pipeline:
        raise SchemaError("pipeline must be a non-empty string")
    seed = _opt_int(data, "seed", 0)
    validate = _opt_str(data, "validate", "basic")
    if validate not in VALIDATE_MODES:
        raise SchemaError(
            f"validate must be one of {VALIDATE_MODES}, got {validate!r}"
        )
    try:
        instance = instance_from_dict(
            _require_mapping(data.get("instance"), "instance")
        )
    except SchemaError:
        raise
    except ConfigurationError as exc:
        raise SchemaError(f"invalid embedded instance: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid embedded instance: {exc}") from exc
    fault_plan = _require_mapping(data.get("fault_plan"), "fault_plan")
    return RepairRequest(
        instance=instance,
        fault_plan=dict(fault_plan),
        pipeline=pipeline,
        seed=int(seed) if seed is not None else 0,
        validate=validate,
    )


def repair_request_to_dict(request: RepairRequest) -> Dict[str, Any]:
    """Serialise a :class:`RepairRequest` back to its wire form."""
    return {
        "format": REPAIR_REQUEST_FORMAT,
        "instance": instance_to_dict(request.instance),
        "fault_plan": request.fault_plan,
        "pipeline": request.pipeline,
        "seed": request.seed,
        "validate": request.validate,
    }


# ----------------------------------------------------------------------
# response checking (used by clients, tests and the bench harness)
# ----------------------------------------------------------------------
_RESPONSE_REQUIRED: Dict[str, frozenset] = {
    PLAN_RESPONSE_FORMAT: frozenset(
        {
            "format",
            "job_id",
            "pipeline",
            "seed",
            "topology",
            "fingerprint",
            "cache_hit",
            "cost",
            "dummy_transfers",
            "num_actions",
            "schedule",
            "elapsed_seconds",
        }
    ),
    BATCH_RESPONSE_FORMAT: frozenset({"format", "responses"}),
    VALIDATE_RESPONSE_FORMAT: frozenset({"format", "ok", "strict", "violations"}),
    REPAIR_RESPONSE_FORMAT: frozenset(
        {
            "format",
            "job_id",
            "completed",
            "rounds",
            "replans",
            "makespan",
            "total_cost",
            "wasted_cost",
            "dummy_transfers",
            "fault_free_cost",
            "fault_free_makespan",
            "backoff_total",
            "applied_schedule",
        }
    ),
    JOB_FORMAT: frozenset({"format", "id", "kind", "state", "events", "next_seq"}),
    HEALTH_FORMAT: frozenset({"format", "status", "jobs", "cache", "uptime_seconds"}),
    ERROR_FORMAT: frozenset({"format", "status", "error", "message"}),
}


def check_response_format(payload: Any, expected: str) -> Dict[str, Any]:
    """Assert ``payload`` is a well-formed response of kind ``expected``.

    Returns the payload (typed as a dict) so callers can chain; raises
    :class:`SchemaError` listing what is missing otherwise.
    """
    payload = _require_mapping(payload, "response")
    _check_format(payload, expected)
    required = _RESPONSE_REQUIRED.get(expected)
    if required is None:
        raise SchemaError(f"unknown response format {expected!r}")
    missing = sorted(required - set(payload))
    if missing:
        raise SchemaError(
            f"{expected} response missing keys: {', '.join(missing)}"
        )
    return dict(payload)
