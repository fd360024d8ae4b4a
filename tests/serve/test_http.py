"""Loopback HTTP tests: routing, transport errors, polling, cancel."""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import orjson
import pytest

from repro.io import instance_to_dict
from repro.serve import ServeClient
from repro.serve.schemas import (
    ERROR_FORMAT,
    HEALTH_FORMAT,
    JOB_FORMAT,
    PLAN_REQUEST_FORMAT,
    PLAN_RESPONSE_FORMAT,
    REPAIR_RESPONSE_FORMAT,
    VALIDATE_RESPONSE_FORMAT,
    check_response_format,
    wire_json,
)

PIPELINE = "GOLCF+H1"


@pytest.fixture
def client(server):
    return ServeClient(server.url, timeout=30.0)


def plan_body(instance, **over):
    body = {
        "format": PLAN_REQUEST_FORMAT,
        "pipeline": PIPELINE,
        "seed": 1,
        "instance": instance_to_dict(instance),
    }
    body.update(over)
    return body


def post_raw(server, data):
    """POST ``data`` bytes to /v1/plan as they are; ``(status, body)``."""
    req = urllib.request.Request(
        server.url + "/v1/plan",
        data=data,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=10.0) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def poll_until_done(client, job_id, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, payload = client.job(job_id)
        assert status == 200
        if payload["state"] in ("done", "failed", "cancelled", "timeout"):
            return payload
    raise AssertionError(f"{job_id} never reached a terminal state")


class TestRoutes:
    def test_healthz(self, client):
        status, payload = client.healthz()
        assert status == 200
        check_response_format(payload, HEALTH_FORMAT)

    def test_plan_sync(self, client, small_instance):
        status, payload = client.plan(
            instance=small_instance, pipeline=PIPELINE, seed=1
        )
        assert status == 200
        check_response_format(payload, PLAN_RESPONSE_FORMAT)

    def test_validate(self, client, small_instance):
        from repro.core import build_pipeline
        from repro.io import schedule_to_dict

        schedule = build_pipeline(PIPELINE).run(small_instance, rng=0)
        status, payload = client.validate(
            small_instance, schedule_to_dict(schedule), strict=True
        )
        assert status == 200
        check_response_format(payload, VALIDATE_RESPONSE_FORMAT)
        assert payload["ok"] is True

    def test_repair(self, client, small_instance):
        status, payload = client.repair(
            small_instance,
            {
                "format": "rtsp-fault-plan/1",
                "transfer_faults": [1],
                "crashes": [],
                "slowdowns": [],
            },
            pipeline=PIPELINE,
        )
        assert status == 200
        check_response_format(payload, REPAIR_RESPONSE_FORMAT)
        assert payload["completed"] is True

    def test_metrics_exposition_parses(self, client, small_instance):
        client.plan(instance=small_instance, pipeline=PIPELINE)
        status, text = client.metrics()
        assert status == 200
        assert isinstance(text, str) and "# TYPE" in text
        parsed = client.metrics_parsed()
        assert parsed["counters"]["rtsp_serve_requests_plan"] >= 1.0


class TestPlanCacheHit:
    """A sync hit on ``/v1/plan`` is written as the cache's stored bytes."""

    def test_hit_body_is_the_wire_encoding(self, server, small_instance):
        data = json.dumps(plan_body(small_instance, seed=4)).encode()
        status, first = post_raw(server, data)
        assert status == 200 and json.loads(first)["cache_hit"] is False
        status, body = post_raw(server, data)
        assert status == 200
        assert body == wire_json(orjson.loads(body))
        pairs = json.loads(body, object_pairs_hook=lambda pairs: pairs)
        assert [key for key, _ in pairs] == sorted(key for key, _ in pairs)
        reply = orjson.loads(body)
        assert reply["cache_hit"] is True
        status, in_process = server.service.plan(plan_body(small_instance, seed=4))
        assert status == 200 and in_process["cache_hit"] is True
        for payload in (reply, in_process):
            assert isinstance(payload.pop("elapsed_seconds"), float)
        assert reply == in_process
        assert reply["schedule"] == json.loads(first)["schedule"]

    def test_hit_parses_only_the_request(self, server, small_instance, monkeypatch):
        import repro.serve.cache
        import repro.serve.schemas
        import repro.serve.service
        import repro.serve.server

        payload = plan_body(small_instance, seed=6)
        data = json.dumps(payload).encode()
        # The same request with other whitespace and key order.
        respelled = json.dumps(
            dict(reversed(payload.items())), indent=1
        ).encode()
        assert respelled != data and json.loads(respelled) == payload
        assert post_raw(server, data)[0] == 200
        calls = {"loads": 0, "wire_json": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(orjson, "loads", counted("loads", orjson.loads))
        for module in (
            repro.serve.cache,
            repro.serve.schemas,
            repro.serve.service,
            repro.serve.server,
        ):
            monkeypatch.setattr(
                module, "wire_json", counted("wire_json", module.wire_json)
            )
        replies = []
        for body, parsed in ((data, 0), (respelled, 1)):
            calls.update(loads=0, wire_json=0)
            status, reply = post_raw(server, body)
            assert status == 200
            # A byte-identical repeat is found by its digest, unparsed; a
            # respelled one by its parse and the instance fingerprint.
            assert calls == {"loads": parsed, "wire_json": 0}
            replies.append(reply)
        monkeypatch.undo()
        assert all(orjson.loads(reply)["cache_hit"] is True for reply in replies)
        counters = server.service.metrics.counter_values()
        # The miss looked the key up twice: before queueing and in the job.
        assert counters["serve.cache.plan.hits"] == 2
        assert counters["serve.cache.plan.body_hits"] == 1
        assert counters["serve.cache.plan.misses"] == 2


class TestAsyncOverHttp:
    def test_async_job_lifecycle(self, client, small_instance):
        status, accepted = client.plan(
            instance=small_instance, pipeline=PIPELINE, seed=9, mode="async"
        )
        assert status == 202
        check_response_format(accepted, JOB_FORMAT)
        final = poll_until_done(client, accepted["id"])
        assert final["state"] == "done"
        check_response_format(final["result"], PLAN_RESPONSE_FORMAT)

    def test_since_cursor_over_http(self, client, small_instance):
        _, accepted = client.plan(
            instance=small_instance, pipeline=PIPELINE, seed=10, mode="async"
        )
        final = poll_until_done(client, accepted["id"])
        status, page = client.job(accepted["id"], since=final["next_seq"])
        assert status == 200
        assert page["events"] == []
        assert page["next_seq"] == final["next_seq"]

    def test_cancel_done_job_409(self, client, small_instance):
        _, accepted = client.plan(
            instance=small_instance, pipeline=PIPELINE, seed=11, mode="async"
        )
        poll_until_done(client, accepted["id"])
        status, payload = client.cancel(accepted["id"])
        assert status == 409
        assert payload["cancel_accepted"] is False

    def test_unknown_job_404(self, client):
        status, payload = client.job("job-999999")
        assert status == 404
        check_response_format(payload, ERROR_FORMAT)
        status, payload = client.cancel("job-999999")
        assert status == 404


class TestTransportErrors:
    def test_unknown_route_404(self, client):
        status, payload = client.request("GET", "/v2/everything")
        assert status == 404
        check_response_format(payload, ERROR_FORMAT)

    def test_post_to_get_route_405(self, client):
        status, payload = client.request("POST", "/healthz", {})
        assert status == 405
        assert payload["error"] == "method-not-allowed"

    def test_delete_non_job_route_404(self, client):
        status, payload = client.request("DELETE", "/v1/plan")
        assert status == 404

    def test_bad_json_body_400(self, server):
        status, body = post_raw(server, b"{not json")
        assert status == 400
        assert json.loads(body)["error"] == "bad-json"

    @pytest.mark.parametrize(
        "literal", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"]
    )
    def test_non_finite_number_400(self, server, small_instance, literal):
        # The stdlib codec accepted these tokens; the body parser does not.
        text = json.dumps(plan_body(small_instance))
        text = text.replace('"sizes": [', f'"sizes": [{literal}, ', 1)
        status, body = post_raw(server, text.encode("utf-8"))
        assert status == 400
        assert json.loads(body)["error"] == "bad-json"

    @pytest.mark.parametrize("encoding", ["utf-16", "utf-32"])
    def test_non_utf8_body_400(self, server, small_instance, encoding):
        data = json.dumps(plan_body(small_instance)).encode(encoding)
        status, body = post_raw(server, data)
        assert status == 400
        assert json.loads(body)["error"] == "bad-json"

    def test_seed_literal_beyond_64_bits_400(self, server, small_instance):
        # An integer literal outside 64 bits parses as a float.
        data = json.dumps(plan_body(small_instance, seed=2**70)).encode()
        assert b"1180591620717411303424" in data
        status, body = post_raw(server, data)
        assert status == 400
        payload = json.loads(body)
        assert payload["error"] == "bad-request"
        assert "seed" in payload["message"]

    def test_largest_seed_round_trips(self, client, small_instance):
        status, payload = client.plan(
            instance=small_instance, pipeline=PIPELINE, seed=2**64 - 1
        )
        assert status == 200, payload
        assert payload["seed"] == 2**64 - 1

    def test_non_ascii_error_is_raw_utf8(self, server, small_instance):
        status, body = post_raw(
            server,
            json.dumps(plan_body(small_instance, pipeline="GOLCF+Ω")).encode(),
        )
        assert status == 400
        assert "Ω".encode("utf-8") in body
        assert "Ω" in json.loads(body)["message"]

    def test_oversized_body_413(self, small_instance):
        from repro.serve import PlanningService, ServeConfig, ServerHandle

        service = PlanningService(ServeConfig(workers=1, max_body_bytes=64))
        with ServerHandle.start(service=service) as handle:
            client = ServeClient(handle.url, timeout=10.0)
            status, payload = client.plan(
                instance=small_instance, pipeline=PIPELINE
            )
            assert status == 413
            assert payload["error"] == "payload-too-large"

    def test_malformed_request_400(self, client):
        status, payload = client.plan_raw({"format": "rtsp-plan-request/9"})
        assert status == 400
        check_response_format(payload, ERROR_FORMAT)

    def test_bad_since_param_400(self, client):
        status, payload = client.request("GET", "/v1/jobs/job-000001?since=x")
        assert status == 400
        assert payload["error"] == "bad-request"


class TestKeepAlive:
    def test_many_requests_one_client(self, client, small_instance):
        """The handler sets Content-Length on every response, so a
        keep-alive client can issue many sequential requests."""
        for seed in range(5):
            status, payload = client.plan(
                instance=small_instance, pipeline=PIPELINE, seed=seed
            )
            assert status == 200
        status, health = client.healthz()
        assert status == 200
        assert health["jobs"]["done"] >= 5
