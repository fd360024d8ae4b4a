"""Seeded request streams for the four end-to-end workloads.

Every request is a complete ``rtsp-plan-request/1`` body plus the
instance the server is expected to plan, so the driver can check each
served schedule against it. Requests are drawn from
``np.random.default_rng((seed, family, kind, index))``: the same seed
gives the same bodies, and any request can be rebuilt on its own.

The fleet generator and its block-diagonal composition live here on
purpose, instead of being imported from ``benchmarks/scale_bench.py`` or
``repro.shard.compose``: the benchmark's inputs must not move when
library or sibling-script code is edited or deleted.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.io import instance_to_dict
from repro.model.instance import RtspInstance
from repro.serve.cache import topology_hash
from repro.serve.schemas import PLAN_REQUEST_FORMAT, canonical_json
from repro.workloads.regular import paper_instance

# Paper regime (section 5.1): BRITE-like tree, minimal capacities, zero
# overlap. 120 objects instead of the paper's 1000 keeps a request near
# 70 ms, so one run holds enough requests for a p90 and for the mean to
# settle across seeds (per-request time varies by a factor of ten).
PAPER_SERVERS = 50
PAPER_OBJECTS = 120
PAPER_PIPELINE = "GOLCF+H1+H2+OP1"

# Fleet regime: 8 disconnected blocks with loose capacities. 96 x 960
# cells is above the flat builder's auto threshold (50k cells), while
# each 12 x 120 part of the sharded path is below it.
FLEET_BLOCKS = 8
FLEET_BLOCK_SERVERS = 12
FLEET_BLOCK_OBJECTS = 120
FLEET_CROSS_COST = 250.0
FLEET_PIPELINE = "GOLCF+H1"
FLEET_SHARDS = 4

HOT_INSTANCES = 4
HOT_CLIENTS = 2
HOT_SERVERS = 100
HOT_OBJECTS = 1000
HOT_PIPELINE = "GOLCF+H1+H2+OP1"

_PAPER, _FLEET, _HOT = 1, 2, 3
_WARMUP, _MEASURED = 0, 1


@dataclass(frozen=True)
class Request:
    """One request body and the instance it asks the server to plan."""

    payload: Dict[str, Any]
    instance: RtspInstance


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(key)


def _plan_payload(pipeline: str, seed: int, **body: Any) -> Dict[str, Any]:
    payload = {
        "format": PLAN_REQUEST_FORMAT,
        "pipeline": pipeline,
        "seed": seed,
        "mode": "sync",
        "validate": "strict",
    }
    payload.update(body)
    return payload


def _instance_request(
    pipeline: str, seed: int, instance: RtspInstance, shards: Optional[int] = None
) -> Request:
    extra = {} if shards is None else {"shards": shards}
    return Request(
        _plan_payload(pipeline, seed, instance=instance_to_dict(instance), **extra),
        instance,
    )


# ----------------------------------------------------------------------
# paper-tight
# ----------------------------------------------------------------------
class PaperStream:
    """Unique paper-regime instances, one per request.

    Request ``i`` has ``2 + i % 2`` replicas per object and, for every
    other pair of requests, sizes uniform in 1000-5000 instead of a
    constant 5000, so every run carries the same class mix.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.warmup = [self._request(_WARMUP, 0)]

    def _request(self, kind: int, index: int) -> Request:
        gen = _rng(self.seed, _PAPER, kind, index)
        instance = paper_instance(
            2 + index % 2,
            PAPER_SERVERS,
            PAPER_OBJECTS,
            uniform_size_range=(1000.0, 5000.0) if (index // 2) % 2 else None,
            rng=gen,
        )
        return _instance_request(PAPER_PIPELINE, int(gen.integers(1 << 31)), instance)

    def round(self, index: int, per_client: int) -> List[List[Request]]:
        base = index * per_client
        return [[self._request(_MEASURED, base + j) for j in range(per_client)]]


# ----------------------------------------------------------------------
# fleet-delta / fleet-sharded
# ----------------------------------------------------------------------
def fleet_costs(gen: np.random.Generator) -> np.ndarray:
    """Block-diagonal ``M x M`` link costs.

    Inside a block: Manhattan distances between random points of a
    100 x 100 square, rounded up. Between blocks: a flat cost above any
    intra-block one (never used, since no object spans two blocks).
    """
    m = FLEET_BLOCKS * FLEET_BLOCK_SERVERS
    costs = np.full((m, m), FLEET_CROSS_COST)
    for block in range(FLEET_BLOCKS):
        coords = gen.random((FLEET_BLOCK_SERVERS, 2)) * 100
        span = slice(block * FLEET_BLOCK_SERVERS, (block + 1) * FLEET_BLOCK_SERVERS)
        costs[span, span] = np.ceil(
            np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
        )
    np.fill_diagonal(costs, 0.0)
    return costs


def fleet_placement(gen: np.random.Generator) -> Dict[str, np.ndarray]:
    """Sizes, loose capacities and block-diagonal ``X_old``/``X_new``.

    Each object draws two holders (one when both draws coincide) among
    its own block's servers, independently for the old and the new
    placement; capacities leave 10% plus 5 units of slack.
    """
    m = FLEET_BLOCKS * FLEET_BLOCK_SERVERS
    n = FLEET_BLOCKS * FLEET_BLOCK_OBJECTS
    sizes = gen.integers(1, 11, size=n).astype(float)
    cols = np.arange(n)
    first_server = (cols // FLEET_BLOCK_OBJECTS) * FLEET_BLOCK_SERVERS
    placements = []
    for _ in range(2):
        x = np.zeros((m, n), dtype=np.int8)
        for _ in range(2):
            x[first_server + gen.integers(0, FLEET_BLOCK_SERVERS, size=n), cols] = 1
        placements.append(x)
    x_old, x_new = placements
    capacities = np.maximum(x_old @ sizes, x_new @ sizes) * 1.1 + 5
    return {"sizes": sizes, "capacities": capacities, "x_old": x_old, "x_new": x_new}


class FleetStream:
    """One uploaded fleet, then placement deltas against its topology."""

    def __init__(self, seed: int, shards: Optional[int]) -> None:
        self.seed = seed
        self.shards = shards
        gen = _rng(seed, _FLEET, _WARMUP, 0)
        costs = fleet_costs(gen)
        base = RtspInstance.create(costs=costs, **fleet_placement(gen))
        self.costs = base.costs
        self.topology = topology_hash(base.costs)
        self.warmup = [
            _instance_request(FLEET_PIPELINE, int(gen.integers(1 << 31)), base, shards)
        ]

    def _request(self, index: int) -> Request:
        gen = _rng(self.seed, _FLEET, _MEASURED, index)
        placement = fleet_placement(gen)
        delta = {"topology": self.topology}
        delta.update({key: value.tolist() for key, value in placement.items()})
        extra = {} if self.shards is None else {"shards": self.shards}
        payload = _plan_payload(
            FLEET_PIPELINE, int(gen.integers(1 << 31)), delta=delta, **extra
        )
        return Request(payload, RtspInstance.create(costs=self.costs, **placement))

    def round(self, index: int, per_client: int) -> List[List[Request]]:
        base = index * per_client
        return [[self._request(base + j) for j in range(per_client)]]


# ----------------------------------------------------------------------
# replay-hot
# ----------------------------------------------------------------------
def synthetic_instance(gen: np.random.Generator, m: int, n: int) -> RtspInstance:
    """A loose-capacity instance drawn in O(M^2 + N).

    Sizes U{1..10}; Manhattan link costs between random points of a
    100 x 100 square; two holder draws per object, old and new; 10%
    plus 5 units of storage slack.
    """
    sizes = gen.integers(1, 11, size=n).astype(float)
    coords = gen.random((m, 2)) * 100
    costs = np.ceil(np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2))
    np.fill_diagonal(costs, 0.0)
    cols = np.arange(n)
    placements = []
    for _ in range(2):
        x = np.zeros((m, n), dtype=np.int8)
        picks = gen.integers(0, m, size=(n, 2))
        x[picks[:, 0], cols] = 1
        x[picks[:, 1], cols] = 1
        placements.append(x)
    x_old, x_new = placements
    capacities = np.maximum(x_old @ sizes, x_new @ sizes) * 1.1 + 5
    return RtspInstance.create(sizes, capacities, costs, x_old, x_new)


class HotStream:
    """A few instances planned during setup, then replayed from the cache."""

    def __init__(self, seed: int) -> None:
        self.warmup = []
        for index in range(HOT_INSTANCES):
            gen = _rng(seed, _HOT, _WARMUP, index)
            instance = synthetic_instance(gen, HOT_SERVERS, HOT_OBJECTS)
            self.warmup.append(
                _instance_request(HOT_PIPELINE, int(gen.integers(1 << 31)), instance)
            )

    def round(self, index: int, per_client: int) -> List[List[Request]]:
        count = len(self.warmup)
        return [
            [self.warmup[(client + j) % count] for j in range(per_client)]
            for client in range(HOT_CLIENTS)
        ]


# ----------------------------------------------------------------------
# workload table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """How one workload is generated, sized and checked.

    BENCHMARK.json records why each workload is in the benchmark.
    """

    name: str
    #: Builds the workload's request stream from a seed.
    stream: Callable[[int], Any]
    #: Closed-loop clients; each waits for its reply before sending again.
    clients: int
    #: Requests per second (all clients) a run is sized for: a round
    #: sends ``seconds * rate / rounds`` requests, so every commit plans
    #: the same requests and a run measures about ``seconds`` seconds.
    rate: float
    #: Whether every measured response must be a plan-cache hit.
    cache_hit: bool
    #: Requests replayed in-process under the tracer.
    sample: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-tight", PaperStream, clients=1, rate=12.0,
                 cache_hit=False, sample=12),
        Workload("fleet-delta", lambda seed: FleetStream(seed, None), clients=1,
                 rate=7.0, cache_hit=False, sample=12),
        Workload("fleet-sharded", lambda seed: FleetStream(seed, FLEET_SHARDS),
                 clients=1, rate=5.6, cache_hit=False, sample=12),
        Workload("replay-hot", HotStream, clients=HOT_CLIENTS, rate=22.0,
                 cache_hit=True, sample=20),
    )
}


def nearest_source_cost(instance: RtspInstance) -> float:
    """What the replicas to create cost from their nearest plausible source.

    Each missing replica is charged its size times the cheapest link to
    the dummy or to another server that holds the object before or after
    the transition. Staging through third servers can beat it, so it is
    a per-instance yardstick for plan cost, not a bound.
    """
    m = instance.num_servers
    costs = instance.costs
    holders = (instance.x_old | instance.x_new).astype(bool)
    counts = holders.sum(axis=0)
    width = int(counts.max())
    # Column k lists object k's holders first; rows past counts[k] are padding.
    listed = np.argsort(~holders, axis=0, kind="stable")[:width]
    real = np.arange(width)[:, None] < counts[None, :]
    target, obj = np.nonzero(instance.outstanding())
    source = listed[:, obj]
    links = np.where(
        real[:, obj] & (source != target), costs[target, source], np.inf
    )
    best = np.minimum(links.min(axis=0), costs[target, m])
    return float((instance.sizes[obj] * best).sum())


class BodyDigest:
    """sha256 over the canonical JSON of request bodies, in send order."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def update(self, requests: Iterable[Request]) -> None:
        for request in requests:
            self._hash.update(canonical_json(request.payload).encode("utf-8"))

    def hexdigest(self) -> str:
        return "sha256:" + self._hash.hexdigest()
