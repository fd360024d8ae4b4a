"""Round-trip and strictness tests for the serve wire schemas."""

from __future__ import annotations

import numpy as np
import pytest

from repro.io import instance_to_dict, schedule_to_dict
from repro.core import build_pipeline
from repro.serve.schemas import (
    BATCH_REQUEST_FORMAT,
    PLAN_REQUEST_FORMAT,
    PLAN_RESPONSE_FORMAT,
    VALIDATE_REQUEST_FORMAT,
    REPAIR_REQUEST_FORMAT,
    PlacementDelta,
    SchemaError,
    batch_request_from_dict,
    canonical_json,
    check_response_format,
    error_payload,
    plan_request_from_dict,
    plan_request_to_dict,
    repair_request_from_dict,
    repair_request_to_dict,
    validate_request_from_dict,
    validate_request_to_dict,
)


def plan_payload(small_instance, **over):
    payload = {
        "format": PLAN_REQUEST_FORMAT,
        "pipeline": "GOLCF+H1",
        "seed": 3,
        "mode": "sync",
        "instance": instance_to_dict(small_instance),
    }
    payload.update(over)
    return payload


class TestPlanRequest:
    def test_round_trip(self, small_instance):
        original = plan_payload(
            small_instance, shards=2, validate="strict", timeout_seconds=5.0
        )
        request = plan_request_from_dict(original)
        assert request.pipeline == "GOLCF+H1"
        assert request.seed == 3
        assert request.shards == 2
        assert request.validate == "strict"
        assert request.timeout_seconds == 5.0
        back = plan_request_to_dict(request)
        # The embedded instance re-serialises identically, so the wire
        # form survives a full parse/serialise cycle byte-for-byte.
        assert canonical_json(back) == canonical_json(original)

    def test_delta_round_trip(self, small_instance):
        delta = {
            "topology": "sha256:" + "0" * 64,
            "sizes": small_instance.sizes.tolist(),
            "capacities": small_instance.capacities.tolist(),
            "x_old": small_instance.x_old.tolist(),
            "x_new": small_instance.x_new.tolist(),
        }
        payload = {
            "format": PLAN_REQUEST_FORMAT,
            "pipeline": "GOLCF",
            "seed": 0,
            "mode": "sync",
            "delta": delta,
        }
        request = plan_request_from_dict(payload)
        assert request.instance is None
        assert isinstance(request.delta, PlacementDelta)
        back = plan_request_to_dict(request)
        assert canonical_json(back) == canonical_json(payload)

    def test_defaults(self, small_instance):
        request = plan_request_from_dict(
            {
                "format": PLAN_REQUEST_FORMAT,
                "instance": instance_to_dict(small_instance),
            }
        )
        assert request.pipeline == "GOLCF+H1+H2+OP1"
        assert request.seed == 0
        assert request.mode == "sync"
        assert request.shards is None
        assert request.validate is None

    @pytest.mark.parametrize(
        "mutation",
        [
            {"format": "rtsp-plan-request/2"},
            {"format": None},
            {"mode": "eventually"},
            {"seed": "zero"},
            {"seed": True},
            {"seed": -1},
            {"seed": 2**64},
            {"seed": float(2**70)},  # how a 2**70 literal arrives over HTTP
            {"shards": 0},
            {"shards": 2**64},
            {"validate": "paranoid"},
            {"timeout_seconds": -1},
            {"timeout_seconds": "fast"},
            {"pipeline": ""},
            {"surprise": 1},
        ],
    )
    def test_rejects_bad_fields(self, small_instance, mutation):
        payload = plan_payload(small_instance)
        payload.update(mutation)
        with pytest.raises(SchemaError):
            plan_request_from_dict(payload)

    def test_rejects_both_instance_and_delta(self, small_instance):
        payload = plan_payload(small_instance)
        payload["delta"] = {
            "topology": "sha256:x",
            "sizes": [1.0],
            "capacities": [1.0],
            "x_old": [[1]],
            "x_new": [[1]],
        }
        with pytest.raises(SchemaError, match="exactly one"):
            plan_request_from_dict(payload)

    def test_rejects_neither_instance_nor_delta(self):
        with pytest.raises(SchemaError, match="exactly one"):
            plan_request_from_dict({"format": PLAN_REQUEST_FORMAT})

    def test_rejects_corrupt_instance(self, small_instance):
        payload = plan_payload(small_instance)
        payload["instance"] = {"format": "rtsp-instance/1", "sizes": [1]}
        with pytest.raises(SchemaError, match="instance"):
            plan_request_from_dict(payload)

    def test_rejects_fractional_instance_cell(self, small_instance):
        payload = plan_payload(small_instance)
        i, k = (int(v) for v in np.argwhere(small_instance.x_new == 0)[0])
        payload["instance"]["x_new"][i][k] = 0.4
        with pytest.raises(SchemaError, match="0/1"):
            plan_request_from_dict(payload)

    @pytest.mark.parametrize("key", ["x_old", "x_new"])
    def test_rejects_boolean_instance_cell(self, small_instance, key):
        # The same strictness as a delta (test_delta_strictness): a JSON
        # true is not a 0/1 entry.
        payload = plan_payload(small_instance)
        i, k = (int(v) for v in np.argwhere(getattr(small_instance, key) == 1)[0])
        payload["instance"][key][i][k] = True
        with pytest.raises(SchemaError, match="0/1"):
            plan_request_from_dict(payload)

    @pytest.mark.parametrize(
        "key,index,cell",
        [
            ("sizes", 0, "1"),
            ("sizes", 1, True),
            ("capacities", 1, "5e0"),
            ("costs", 1, "1"),
            ("costs", 1, True),
            # float() of an int beyond the double range raises
            # OverflowError, which must not surface as a 500.
            pytest.param("sizes", 0, 10**400, id="sizes-0-int1e400"),
            pytest.param("capacities", 1, 10**400, id="capacities-1-int1e400"),
            pytest.param("costs", 1, 10**400, id="costs-1-int1e400"),
        ],
    )
    def test_rejects_non_number_instance_entries(
        self, small_instance, service, key, index, cell
    ):
        # The same strictness as a delta's sizes and capacities: numpy
        # would cast each of these to a number and plan the instance.
        payload = plan_payload(small_instance)
        instance = payload["instance"]
        (instance[key][0] if key == "costs" else instance[key])[index] = cell
        with pytest.raises(SchemaError, match="must be numbers"):
            plan_request_from_dict(payload)
        status, body = service.plan(payload)
        assert (status, body["error"]) == (400, "bad-request"), body
        assert "must be numbers" in body["message"]
        status, body = service.validate(
            {
                "format": VALIDATE_REQUEST_FORMAT,
                "instance": instance,
                "schedule": {"format": "rtsp-schedule/1", "actions": []},
            }
        )
        assert (status, body["error"]) == (400, "bad-request"), body
        assert "must be numbers" in body["message"]

    @pytest.mark.parametrize(
        "timeout",
        [
            float("nan"),
            float("inf"),
            float("-inf"),
            pytest.param(10**400, id="int1e400"),
        ],
    )
    def test_rejects_non_finite_timeout(self, small_instance, service, timeout):
        payload = plan_payload(small_instance, timeout_seconds=timeout)
        with pytest.raises(SchemaError, match="finite"):
            plan_request_from_dict(payload)
        status, body = service.plan(payload)
        assert (status, body["error"]) == (400, "bad-request"), body

    def test_rejects_non_object(self):
        with pytest.raises(SchemaError):
            plan_request_from_dict(["not", "an", "object"])

    @pytest.mark.parametrize(
        "mutation",
        [
            {"sizes": []},
            {"sizes": ["big"]},
            {"sizes": ["1"]},
            {"sizes": [True]},
            {"capacities": ["5e0"]},
            {"x_old": [[2]]},
            {"x_old": [[1], [0, 1]]},
            {"x_old": [[True]]},
            {"x_old": [[0.5]]},
            {"x_old": [[1, "1"]]},
            {"x_old": [(1,)]},
            {"x_old": [[None]]},
            {"x_new": [[1, 0], [0, True]]},
            {"topology": ""},
            {"extra": 1},
            pytest.param({"sizes": [10**400]}, id="sizes-int1e400"),
            pytest.param({"capacities": [10**400]}, id="capacities-int1e400"),
        ],
    )
    def test_delta_strictness(self, small_instance, mutation):
        delta = {
            "topology": "sha256:abc",
            "sizes": [1.0],
            "capacities": [2.0],
            "x_old": [[1]],
            "x_new": [[1]],
        }
        delta.update(mutation)
        with pytest.raises(SchemaError):
            PlacementDelta.from_dict(delta)

    def test_delta_accepts_integral_floats(self):
        delta = PlacementDelta.from_dict(
            {
                "topology": "sha256:abc",
                "sizes": [1.0, 1.0],
                "capacities": [2.0],
                "x_old": [[1.0, 0.0]],
                "x_new": [[1, 1]],
            }
        )
        assert delta.x_old == [[1, 0]]
        assert [type(cell) for cell in delta.x_old[0]] == [int, int]
        assert delta.x_new == [[1, 1]]

    def test_decoded_delta_matches_its_fields(self, small_instance):
        fields = {
            "topology": "sha256:abc",
            "sizes": small_instance.sizes.tolist(),
            "capacities": small_instance.capacities.tolist(),
            "x_old": small_instance.x_old.tolist(),
            "x_new": small_instance.x_new.tolist(),
        }
        decoded = PlacementDelta.from_dict(fields)
        assert decoded == PlacementDelta(**fields)
        assert decoded.to_dict() == fields
        instance = decoded.realize(small_instance.costs)
        assert (instance.x_old == small_instance.x_old).all()
        assert (instance.x_new == small_instance.x_new).all()

    @pytest.mark.parametrize("cell", [int, float], ids=["ints", "integral-floats"])
    def test_decoded_delta_realizes_as_its_fields_do(self, small_instance, cell):
        # Exact ints take the decoder's fast path, 0.0 and 1.0 its slow
        # one; both realize from the rows packed while decoding.
        from repro.serve.cache import instance_fingerprint

        fields = {
            "topology": "sha256:abc",
            "sizes": small_instance.sizes.tolist(),
            "capacities": small_instance.capacities.tolist(),
            "x_old": small_instance.x_old.tolist(),
            "x_new": small_instance.x_new.tolist(),
        }
        wire = dict(fields)
        for name in ("x_old", "x_new"):
            wire[name] = [list(map(cell, row)) for row in fields[name]]
        decoded = PlacementDelta.from_dict(wire)
        assert decoded == PlacementDelta(**fields)
        assert decoded.to_dict() == fields
        got = decoded.realize(small_instance.costs)
        want = PlacementDelta(**fields).realize(small_instance.costs)
        for name in ("sizes", "capacities", "costs", "x_old", "x_new"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert instance_fingerprint(got) == instance_fingerprint(want)
        assert instance_fingerprint(got) == instance_fingerprint(small_instance)


class TestBatchRequest:
    def test_round_trip(self, small_instance):
        batch = {
            "format": BATCH_REQUEST_FORMAT,
            "requests": [plan_payload(small_instance, seed=s) for s in (0, 1)],
        }
        requests = batch_request_from_dict(batch)
        assert [r.seed for r in requests] == [0, 1]

    def test_one_bad_entry_rejects_batch(self, small_instance):
        batch = {
            "format": BATCH_REQUEST_FORMAT,
            "requests": [
                plan_payload(small_instance),
                {"format": PLAN_REQUEST_FORMAT},
            ],
        }
        with pytest.raises(SchemaError, match=r"requests\[1\]"):
            batch_request_from_dict(batch)

    def test_rejects_async_entries(self, small_instance):
        batch = {
            "format": BATCH_REQUEST_FORMAT,
            "requests": [plan_payload(small_instance, mode="async")],
        }
        with pytest.raises(SchemaError, match="sync"):
            batch_request_from_dict(batch)

    def test_rejects_empty(self):
        with pytest.raises(SchemaError):
            batch_request_from_dict(
                {"format": BATCH_REQUEST_FORMAT, "requests": []}
            )


class TestValidateAndRepairRequests:
    def test_validate_round_trip(self, small_instance):
        schedule = build_pipeline("GOLCF").run(small_instance, rng=0)
        payload = {
            "format": VALIDATE_REQUEST_FORMAT,
            "instance": instance_to_dict(small_instance),
            "schedule": schedule_to_dict(schedule),
            "strict": True,
        }
        request = validate_request_from_dict(payload)
        assert request.strict is True
        assert canonical_json(validate_request_to_dict(request)) == (
            canonical_json(payload)
        )

    def test_validate_rejects_non_bool_strict(self, small_instance):
        payload = {
            "format": VALIDATE_REQUEST_FORMAT,
            "instance": instance_to_dict(small_instance),
            "schedule": {"format": "rtsp-schedule/1", "actions": []},
            "strict": "yes",
        }
        with pytest.raises(SchemaError, match="strict"):
            validate_request_from_dict(payload)

    def test_repair_round_trip(self, small_instance):
        payload = {
            "format": REPAIR_REQUEST_FORMAT,
            "instance": instance_to_dict(small_instance),
            "fault_plan": {"format": "rtsp-fault-plan/1"},
            "pipeline": "GOLCF+H1",
            "seed": 2,
            "validate": "basic",
        }
        request = repair_request_from_dict(payload)
        assert request.pipeline == "GOLCF+H1"
        assert canonical_json(repair_request_to_dict(request)) == (
            canonical_json(payload)
        )

    def test_repair_rejects_unknown_keys(self, small_instance):
        payload = {
            "format": REPAIR_REQUEST_FORMAT,
            "instance": instance_to_dict(small_instance),
            "fault_plan": {},
            "rate": 0.5,
        }
        with pytest.raises(SchemaError, match="unknown keys"):
            repair_request_from_dict(payload)


class TestResponseChecking:
    def test_error_payload_shape(self):
        payload = error_payload(404, "unknown-job", "no such job")
        checked = check_response_format(payload, "rtsp-error/1")
        assert checked["status"] == 404

    def test_missing_keys_listed(self):
        with pytest.raises(SchemaError, match="missing keys"):
            check_response_format(
                {"format": PLAN_RESPONSE_FORMAT, "job_id": "x"},
                PLAN_RESPONSE_FORMAT,
            )

    def test_wrong_format_rejected(self):
        with pytest.raises(SchemaError, match="expected format"):
            check_response_format(
                {"format": "rtsp-error/1"}, PLAN_RESPONSE_FORMAT
            )

    def test_canonical_json_is_order_independent(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == canonical_json(
            {"a": [1, 2], "b": 1}
        )
