"""The wire codec against the stdlib: every response kind the service
sends decodes to the value ``json.dumps(payload, sort_keys=True)``
decodes to, with its keys sorted at every level.
"""

from __future__ import annotations

import json

import numpy as np
import orjson
import pytest

from repro.core import build_pipeline
from repro.io import instance_to_dict, schedule_to_dict
from repro.serve.cache import PlanCache
from repro.serve.schemas import (
    BATCH_REQUEST_FORMAT,
    PLAN_REQUEST_FORMAT,
    REPAIR_REQUEST_FORMAT,
    VALIDATE_REQUEST_FORMAT,
    wire_json,
)

PIPELINE = "GOLCF+H1"


def plan_payload(instance, **over):
    payload = {
        "format": PLAN_REQUEST_FORMAT,
        "pipeline": PIPELINE,
        "seed": 5,
        "mode": "sync",
        "instance": instance_to_dict(instance),
    }
    payload.update(over)
    return payload


def responses(service, instance):
    """One ``(name, status, payload)`` per response kind."""
    out = [("plan", *service.plan(plan_payload(instance)))]
    out.append(("plan-cached", *service.plan(plan_payload(instance))))
    out.append(
        (
            "batch",
            *service.plan(
                {
                    "format": BATCH_REQUEST_FORMAT,
                    "requests": [
                        plan_payload(instance, seed=s) for s in (6, 7)
                    ],
                }
            ),
        )
    )
    schedule = build_pipeline(PIPELINE).run(instance, rng=5)
    out.append(
        (
            "validate",
            *service.validate(
                {
                    "format": VALIDATE_REQUEST_FORMAT,
                    "instance": instance_to_dict(instance),
                    "schedule": schedule_to_dict(schedule),
                    "strict": True,
                }
            ),
        )
    )
    out.append(
        (
            "repair",
            *service.repair(
                {
                    "format": REPAIR_REQUEST_FORMAT,
                    "instance": instance_to_dict(instance),
                    "fault_plan": {
                        "format": "rtsp-fault-plan/1",
                        "transfer_faults": [0, 2],
                        "crashes": [[0.5, 3]],
                        "slowdowns": [[0.0, 1, 2, 3.0]],
                    },
                    "pipeline": PIPELINE,
                    "seed": 1,
                }
            ),
        )
    )
    _, accepted = service.plan(plan_payload(instance, seed=8, mode="async"))
    out.append(("job-accepted", 202, accepted))
    job = service.queue.get(accepted["id"])
    job.wait()
    out.append(("job", *service.job(accepted["id"])))
    out.append(("error", *service.plan({"format": "rtsp-plan-request/9"})))
    out.append(("healthz", *service.healthz()))
    return out


def sorted_pairs(pairs):
    keys = [key for key, _ in pairs]
    assert keys == sorted(keys), keys
    return dict(pairs)


def check_matches_stdlib(payload):
    body = wire_json(payload)
    stdlib = json.loads(json.dumps(payload, sort_keys=True))
    assert orjson.loads(body) == stdlib
    # Sorted keys at every level, read back with the stdlib parser.
    assert json.loads(body, object_pairs_hook=sorted_pairs) == stdlib


def test_every_response_kind_matches_stdlib(service, small_instance):
    seen = set()
    for name, status, payload in responses(service, small_instance):
        assert status < 300 or name == "error", (name, status, payload)
        check_matches_stdlib(payload)
        seen.add(name)
    assert len(seen) == 9


def test_numpy_scalars_and_non_string_keys_match_stdlib():
    # The stdlib writes float64 scalars as floats and int keys as
    # strings; the wire codec must too.
    check_matches_stdlib(
        {"b": [np.float64(0.1), np.float64(1e16)], "a": {10: None, 2: "x"}}
    )


def test_plan_cache_round_trips_the_payload(service, small_instance):
    _, payload = service.plan(plan_payload(small_instance, seed=9))
    cache = PlanCache()
    cache.put(("k",), payload)
    first = cache.get(("k",))
    assert first == payload
    first["cache_hit"] = True  # callers annotate their copy
    assert cache.get(("k",)) == payload


def test_nan_is_written_as_null():
    # The stdlib wrote a NaN token, which the body parser rejects.
    assert wire_json({"x": float("nan")}) == b'{"x":null}'


def test_integers_beyond_64_bits_are_not_written():
    # Such a literal would be read back as a float.
    with pytest.raises(TypeError):
        wire_json({"x": 2**64})
