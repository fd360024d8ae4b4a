"""What one sync plan-cache hit over HTTP leaves behind, pinned.

A repeat of a planned request must answer with the stored plan and move
the service's counters, the plan cache and the topology store exactly
as pinned here, however the server finds the stored plan.
"""

from __future__ import annotations

import re
import urllib.error
import urllib.request

import orjson
import pytest

from repro.io import instance_to_dict
from repro.serve import ServeConfig, ServerHandle
from repro.serve.schemas import PLAN_REQUEST_FORMAT, wire_json
from repro.workloads import paper_instance

PIPELINE = "GOLCF+H1"

#: The ``elapsed_seconds`` value of a wire body, the one byte run that
#: differs between two replies of one stored plan.
_ELAPSED = re.compile(rb'"elapsed_seconds":[^,}]*')


def post(server, data: bytes):
    req = urllib.request.Request(
        server.url + "/v1/plan", data=data, method="POST"
    )
    try:
        with urllib.request.urlopen(req, timeout=30.0) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def full_request(instance, seed):
    return {
        "format": PLAN_REQUEST_FORMAT,
        "pipeline": PIPELINE,
        "seed": seed,
        "instance": instance_to_dict(instance),
    }


def delta_request(instance, topology, seed):
    return {
        "format": PLAN_REQUEST_FORMAT,
        "pipeline": PIPELINE,
        "seed": seed,
        "delta": {
            "topology": topology,
            "sizes": instance.sizes.tolist(),
            "capacities": instance.capacities.tolist(),
            "x_old": instance.x_old.tolist(),
            "x_new": instance.x_new.tolist(),
        },
    }


def state(service):
    """Every count a hit may move, with the plan-latency sample count."""
    counters = service.metrics.counter_values()
    histograms = service.metrics.snapshot()["histograms"]
    millis = histograms.get("serve.plan.millis", {"count": 0})["count"]
    topology = service.topologies.stats()
    return {
        "serve.requests.plan": counters.get("serve.requests.plan", 0),
        "serve.cache.plan.hits": counters.get("serve.cache.plan.hits", 0),
        "serve.cache.plan.misses": counters.get("serve.cache.plan.misses", 0),
        "serve.plan.millis": millis,
        "PlanCache.hits": service.plan_cache.hits,
        "PlanCache.misses": service.plan_cache.misses,
        "PlanCache.entries": len(service.plan_cache),
        "TopologyStore.hits": topology["hits"],
        "TopologyStore.misses": topology["misses"],
        "TopologyStore.entries": topology["entries"],
    }


def moved(before, after):
    return {
        name: after[name] - before[name]
        for name in before
        if after[name] != before[name]
    }


#: What every hit moves; a delta hit also counts a topology hit.
_ONE_HIT = {
    "serve.requests.plan": 1,
    "serve.cache.plan.hits": 1,
    "serve.plan.millis": 1,
    "PlanCache.hits": 1,
}


@pytest.mark.parametrize("kind", ["full", "delta"])
def test_a_repeated_request_moves_what_a_hit_moves(server, small_instance, kind):
    service = server.service
    status, reply = post(server, wire_json(full_request(small_instance, seed=1)))
    assert status == 200
    data = wire_json(full_request(small_instance, seed=2))
    if kind == "delta":
        topology = orjson.loads(reply)["topology"]
        data = wire_json(delta_request(small_instance, topology, seed=2))
    status, planned = post(server, data)
    assert status == 200 and b'"cache_hit":false' in planned
    for _ in range(2):
        before = state(service)
        status, body = post(server, data)
        assert status == 200
        want = dict(_ONE_HIT)
        if kind == "delta":
            want["TopologyStore.hits"] = 1
        assert moved(before, state(service)) == want
        # The stored plan, byte for byte, apart from the two hit fields.
        assert _ELAPSED.sub(b"", body) == _ELAPSED.sub(b"", planned).replace(
            b'"cache_hit":false', b'"cache_hit":true'
        )
    assert state(service)["PlanCache.entries"] == 2
    assert state(service)["TopologyStore.entries"] == 1


def test_a_hit_keeps_its_plan_and_topology_most_recently_used():
    instances = [
        paper_instance(replicas=2, num_servers=6, num_objects=12, rng=seed)
        for seed in range(3)
    ]
    config = ServeConfig(workers=1, plan_cache_entries=2, topology_entries=2)
    with ServerHandle.start(config=config) as server:
        a, b, c = (wire_json(full_request(inst, seed=0)) for inst in instances)
        status, planned = post(server, a)
        topology = orjson.loads(planned)["topology"]
        a_delta = wire_json(delta_request(instances[0], topology, seed=0))
        assert post(server, b)[0] == 200
        for data in (a, a, a_delta, a_delta):
            status, body = post(server, data)
            assert status == 200 and b'"cache_hit":true' in body
        assert post(server, c)[0] == 200  # evicts b's plan and topology
        status, body = post(server, a_delta)
        assert status == 200 and b'"cache_hit":true' in body
        status, body = post(server, b)
        assert status == 200 and b'"cache_hit":false' in body
        stats = server.service.topologies.stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (3, 0, 2)
