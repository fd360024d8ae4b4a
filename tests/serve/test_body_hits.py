"""Plan requests answered by the sha256 of their body, and when not.

A sync ``/v1/plan`` body answered 200 is remembered by its digest, so
the same bytes again get the plan-cache hit without a parse. Every
other body, and every digest whose plan or topology has left the
caches, goes through the parse as before.
"""

from __future__ import annotations

import hashlib
import threading

import orjson
import pytest

from repro.serve import ServeConfig, ServerHandle
from repro.serve.schemas import BATCH_REQUEST_FORMAT, wire_json
from repro.workloads import paper_instance
from tests.serve.test_hit_pin import _ELAPSED, delta_request, full_request, post


@pytest.fixture(scope="module")
def instances():
    return [
        paper_instance(replicas=2, num_servers=6, num_objects=12, rng=seed)
        for seed in range(3)
    ]


def full(instance, seed=0, **over):
    return {**full_request(instance, seed), **over}


def respelled(payload):
    """``payload`` in other bytes: reversed keys, indented."""
    reordered = dict(reversed(payload.items()))
    return orjson.dumps(reordered, option=orjson.OPT_INDENT_2)


def body_hits(server):
    counters = server.service.metrics.counter_values()
    return counters.get("serve.cache.plan.body_hits", 0)


def known(server, data):
    """Whether the service remembers the body ``data`` by its digest."""
    return hashlib.sha256(data).digest() in server.service.plan_cache._bodies


def serve(**config):
    return ServerHandle.start(config=ServeConfig(workers=2, **config))


def test_a_body_hit_replies_as_a_parsed_hit_does(instances):
    with serve() as server:
        payload = full(instances[0], seed=3)
        data = wire_json(payload)
        assert post(server, data)[0] == 200
        assert known(server, data)
        status, parsed_hit = post(server, respelled(payload))
        assert status == 200 and body_hits(server) == 0
        status, body_hit = post(server, data)
        assert status == 200 and body_hits(server) == 1
        assert b'"cache_hit":true' in body_hit
        assert _ELAPSED.sub(b"", body_hit) == _ELAPSED.sub(b"", parsed_hit)
        # The respelled body was answered 200 by its parse, so it is
        # remembered too, for the same plan.
        assert known(server, respelled(payload))
        status, again = post(server, respelled(payload))
        assert status == 200 and body_hits(server) == 2
        assert _ELAPSED.sub(b"", again) == _ELAPSED.sub(b"", parsed_hit)


def test_an_evicted_plan_takes_its_bodies_along(instances):
    with serve(plan_cache_entries=1) as server:
        a, b = (wire_json(full(inst)) for inst in instances[:2])
        assert post(server, a)[0] == 200
        assert post(server, b)[0] == 200  # evicts a's plan
        assert not known(server, a) and known(server, b)
        status, body = post(server, a)
        assert status == 200 and b'"cache_hit":false' in body
        assert body_hits(server) == 0
        assert known(server, a) and not known(server, b)


def test_an_evicted_topology_falls_through(instances):
    with serve(topology_entries=1) as server:
        payload = full(instances[0])
        status, body = post(server, wire_json(payload))
        assert status == 200
        topology = orjson.loads(body)["topology"]
        data = wire_json(delta_request(instances[0], topology, seed=1))
        assert post(server, data)[0] == 200
        assert known(server, data)
        assert post(server, wire_json(full(instances[1])))[0] == 200
        assert topology not in server.service.topologies
        misses = server.service.topologies.stats()["misses"]
        # A delta against the evicted matrix fails as it always has.
        status, body = post(server, data)
        assert status == 404
        assert orjson.loads(body)["error"] == "unknown-topology"
        assert server.service.topologies.stats()["misses"] == misses + 1
        # A full body re-registers its matrix, then hits by its parse.
        status, body = post(server, wire_json(payload))
        assert status == 200 and b'"cache_hit":true' in body
        assert topology in server.service.topologies
        assert body_hits(server) == 0
        status, body = post(server, data)
        assert status == 200 and b'"cache_hit":true' in body
        assert body_hits(server) == 1


def test_async_and_batch_bodies_are_never_remembered(instances):
    with serve() as server:
        async_body = wire_json(full(instances[0], mode="async"))
        batch_body = wire_json(
            {
                "format": BATCH_REQUEST_FORMAT,
                "requests": [full(instances[1]), full(instances[2])],
            }
        )
        for _ in range(2):
            assert post(server, async_body)[0] == 202
            status, body = post(server, batch_body)
            assert status == 200
            assert orjson.loads(body)["format"] == "rtsp-plan-batch-response/1"
        assert not known(server, async_body) and not known(server, batch_body)
        assert body_hits(server) == 0


@pytest.mark.parametrize(
    "over, status, code",
    [
        ({"pipeline": "GOLCF+H9"}, 400, "bad-request"),
        ({"seed": -1}, 400, "bad-request"),
        ("infeasible", 422, "infeasible-instance"),
    ],
)
def test_a_failed_body_fails_again(instances, over, status, code):
    payload = full(instances[0])
    if over == "infeasible":
        payload["instance"]["capacities"] = [0.5] * instances[0].num_servers
    else:
        payload.update(over)
    data = wire_json(payload)
    with serve() as server:
        replies = [post(server, data) for _ in range(2)]
        assert not known(server, data) and body_hits(server) == 0
    for got, body in replies:
        assert got == status
        assert orjson.loads(body)["error"] == code
    assert replies[0] == replies[1]


def test_remembered_bodies_stay_within_the_plan_cache_bound(instances):
    with serve(plan_cache_entries=2) as server:
        bodies = server.service.plan_cache._bodies
        for inst in instances:
            payload = full(inst)
            spellings = (wire_json(payload), respelled(payload), orjson.dumps(payload))
            for data in spellings:
                assert post(server, data)[0] == 200
                assert len(bodies) <= 2
        assert len(bodies) == 2
        assert len(server.service.plan_cache) == 2


def test_two_threads_posting_one_body(instances):
    data = wire_json(full(instances[1], seed=8))
    with serve() as server:
        for _ in range(3):
            start = threading.Barrier(2)
            replies = [None, None]

            def send(slot):
                start.wait()
                replies[slot] = post(server, data)

            threads = [
                threading.Thread(target=send, args=(i,)) for i in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert [status for status, _ in replies] == [200, 200]
            schedules = [orjson.loads(body)["schedule"] for _, body in replies]
            assert schedules[0] == schedules[1]
        assert known(server, data) and body_hits(server) >= 2
