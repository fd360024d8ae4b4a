"""Topology-hash keyed caching for the planning service.

Two caches sit behind ``POST /v1/plan``:

* :class:`TopologyStore` — the extended cost matrix keyed by its
  canonical :func:`topology_hash`. Matrices are the one ``O(M^2)``
  request component; clients upload them once and re-plan with
  placement deltas that reference the hash. Large matrices spill to a
  read-only memmap via :class:`repro.shard.mmapcost.CostMatrixStore`
  so a busy server does not hold every fleet's matrix in RAM.
* :class:`PlanCache` — finished plan responses keyed by the full
  instance fingerprint plus ``(pipeline, seed, shards)``, each held as
  its wire body. Planning is deterministic per key, so a hit replays
  the stored response bytes without re-running the builder: the HTTP
  route writes :meth:`PlanCache.hit_body`, the stored body with only
  its ``cache_hit`` and ``elapsed_seconds`` values replaced, without
  parsing or re-encoding it. A sync request body that was answered 200
  once is also remembered by its sha256 (:meth:`PlanCache.add_body`),
  so the same bytes sent again reach that reply without being parsed
  (:meth:`PlanCache.hit_digest`).

Both hashes are canonical: arrays are reduced to a fixed dtype and
C-order before hashing, so the same logical instance hashes identically
regardless of how the client serialised it. Two instances that share a
cost matrix but differ in placements collide on ``topology_hash`` *by
design* (that is the reuse) and are separated by
:func:`instance_fingerprint`.
"""

from __future__ import annotations

import hashlib
import re
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

import numpy as np
import orjson

from repro.model.instance import RtspInstance
from repro.serve.schemas import wire_json
from repro.shard.mmapcost import MMAP_DEFAULT_BYTES, CostMatrixStore

__all__ = [
    "topology_hash",
    "instance_fingerprint",
    "TopologyStore",
    "PlanCache",
]


def _digest_arrays(tag: str, *arrays: Tuple[str, np.ndarray, Any]) -> str:
    """sha256 over dtype-normalised array bytes (shape included)."""
    h = hashlib.sha256()
    h.update(tag.encode("ascii"))
    for name, array, dtype in arrays:
        canon = np.ascontiguousarray(np.asarray(array, dtype=dtype))
        h.update(name.encode("ascii"))
        h.update(repr(canon.shape).encode("ascii"))
        h.update(canon.tobytes())
    return "sha256:" + h.hexdigest()


def topology_hash(costs: np.ndarray) -> str:
    """Canonical hash of an extended cost matrix.

    Deterministic across runs and processes; two matrices hash equally
    iff they are element-wise identical after float64 normalisation.
    """
    return _digest_arrays("rtsp-topology/1", ("costs", costs, np.float64))


def instance_fingerprint(instance: RtspInstance) -> str:
    """Canonical hash of a full instance (topology + sizes + placements)."""
    return _digest_arrays(
        "rtsp-instance/1",
        ("costs", instance.costs, np.float64),
        ("sizes", instance.sizes, np.float64),
        ("capacities", instance.capacities, np.float64),
        ("x_old", instance.x_old, np.uint8),
        ("x_new", instance.x_new, np.uint8),
    )


class TopologyStore:
    """Bounded LRU of cost matrices keyed by :func:`topology_hash`.

    ``spill`` follows :meth:`CostMatrixStore.from_matrix` semantics
    (``"auto"`` memmaps matrices above ``threshold_bytes``). Evicted and
    closed entries unlink their spill files. Thread-safe.
    """

    def __init__(
        self,
        max_entries: int = 32,
        spill: object = "auto",
        threshold_bytes: int = MMAP_DEFAULT_BYTES,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.spill = spill
        self.threshold_bytes = threshold_bytes
        self._entries: "OrderedDict[str, CostMatrixStore]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def register(self, costs: np.ndarray) -> Tuple[str, bool]:
        """Remember ``costs``; returns ``(hash, newly_stored)``."""
        key = topology_hash(costs)
        if self.touch(key):
            return key, False
        # Spill outside the lock: writing a large matrix to disk must
        # not serialise unrelated lookups.
        store = CostMatrixStore.from_matrix(
            np.asarray(costs, dtype=np.float64),
            spill=self.spill,
            threshold_bytes=self.threshold_bytes,
        )
        evicted = None
        with self._lock:
            if key in self._entries:  # lost a registration race
                self._entries.move_to_end(key)
                evicted = store
            else:
                self._entries[key] = store
                if len(self._entries) > self.max_entries:
                    _, evicted = self._entries.popitem(last=False)
        if evicted is not None:
            evicted.close()
        return key, evicted is not store

    def get(self, key: str) -> Optional[np.ndarray]:
        """The matrix for ``key``, or ``None`` (counts a hit/miss)."""
        with self._lock:
            store = self._entries.get(key)
            if store is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        return store.matrix

    def touch(self, key: str, count: bool = False) -> bool:
        """Mark ``key`` most recently used; ``False`` if it is not stored.

        A counted touch is a hit, as :meth:`get`'s; a missing key counts
        nothing.
        """
        with self._lock:
            if key not in self._entries:
                return False
            self._entries.move_to_end(key)
            self.hits += count
            return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> Dict[str, int]:
        with self._lock:
            spilled = sum(1 for s in self._entries.values() if s.spilled)
            return {
                "entries": len(self._entries),
                "spilled": spilled,
                "hits": self.hits,
                "misses": self.misses,
            }

    def close(self) -> None:
        """Drop every entry and unlink spill files."""
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for store in entries:
            store.close()

    def __enter__(self) -> "TopologyStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: A ``cache_hit`` or ``elapsed_seconds`` key of a wire body and its
#: scalar value. A plan response holds no caller-chosen keys, so each
#: key matches there exactly once; a payload where either matches again
#: gets no spans, and :meth:`PlanCache.hit_body` refuses it.
_HIT_FIELDS = re.compile(
    rb'"(cache_hit|elapsed_seconds)":(true|false|null|-?[0-9][0-9.eE+-]*)(?=[,}])'
)

#: Where a body's ``cache_hit`` and ``elapsed_seconds`` values sit.
_Spans = Tuple[Tuple[int, int], Tuple[int, int]]


def _hit_spans(blob: bytes) -> Optional[_Spans]:
    """The byte spans of the ``cache_hit`` and ``elapsed_seconds``
    values, or ``None`` unless each key occurs exactly once."""
    found = [(m.group(1), m.span(2)) for m in _HIT_FIELDS.finditer(blob)]
    # Sorted keys put cache_hit first.
    if [name for name, _ in found] != [b"cache_hit", b"elapsed_seconds"]:
        return None
    return found[0][1], found[1][1]


#: What a request body's digest stands for: the plan key its parse gave,
#: the topology hash it names or registered, and whether it is a
#: placement delta.
_Body = Tuple[Tuple, str, bool]


class PlanCache:
    """Bounded LRU of plan responses, each held as its wire body.

    Keys are ``(instance_fingerprint, pipeline, seed, shards)``; the
    value is the response encoded by
    :func:`~repro.serve.schemas.wire_json`, so :meth:`get` hands back a
    fresh dict each time (callers may annotate it without corrupting
    the cache), and :meth:`hit_body` replays the bytes themselves.

    Request bodies that were answered with a plan are remembered by
    their sha256 (:meth:`add_body`), at most ``max_entries`` of them,
    least recently used first out; each goes when its plan goes.
    :meth:`hit_digest` answers such a body again without its parse.
    Thread-safe.
    """

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple, Tuple[bytes, Optional[_Spans]]]" = (
            OrderedDict()
        )
        self._bodies: "OrderedDict[bytes, _Body]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(
        fingerprint: str, pipeline: str, seed: int, shards: Optional[int]
    ) -> Tuple[str, str, int, Optional[int]]:
        """The cache key for one deterministic planning run."""
        return (fingerprint, pipeline, int(seed), shards)

    def _lookup(self, key: Tuple) -> Optional[Tuple[bytes, Optional[_Spans]]]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        return entry

    def get(self, key: Tuple) -> Optional[Dict[str, Any]]:
        """The payload stored under ``key``, or ``None`` (counts a hit/miss)."""
        entry = self._lookup(key)
        return None if entry is None else orjson.loads(entry[0])

    def hit_body(self, key: Tuple, elapsed: float) -> Optional[bytes]:
        """The stored body under ``key`` as a replay, or ``None`` (counts
        a hit/miss).

        The body's ``cache_hit`` value becomes ``true`` and its
        ``elapsed_seconds`` value ``elapsed``; every other byte is the
        stored one. The result is byte-identical to
        :func:`~repro.serve.schemas.wire_json` of :meth:`get`'s payload
        with those two keys set, and nothing is parsed or re-encoded.
        The payload must have had each key exactly once (a plan response
        does); ``ValueError`` otherwise.
        """
        entry = self._lookup(key)
        if entry is None:
            return None
        blob, spans = entry
        if spans is None:
            raise ValueError(
                "the cached payload has no single cache_hit and "
                "elapsed_seconds keys"
            )
        (hit_start, hit_end), (elapsed_start, elapsed_end) = spans
        view = memoryview(blob)
        return b"".join(
            (
                view[:hit_start],
                b"true",
                view[hit_end:elapsed_start],
                orjson.dumps(elapsed),
                view[elapsed_end:],
            )
        )

    def hit_digest(
        self, digest: bytes, elapsed: float, topologies: TopologyStore
    ) -> Optional[bytes]:
        """:meth:`hit_body` for the plan of the request body with sha256
        ``digest``, or ``None`` if that body is unknown or its topology
        is no longer in ``topologies``.

        A hit counts, and moves to most recently used, what the body's
        parse would: the plan entry, and the topology, which counts a
        hit for a placement delta as :meth:`TopologyStore.get` does. A
        ``None`` counts nothing.
        """
        # The lock is reentrant and hit_body takes it again, so the plan,
        # which a remembered body always has, cannot go in between.
        with self._lock:
            body = self._bodies.get(digest)
            if body is None:
                return None
            key, topology, delta = body
            if not topologies.touch(topology, count=delta):
                return None
            self._bodies.move_to_end(digest)
            return self.hit_body(key, elapsed)

    def add_body(
        self, digest: bytes, key: Tuple, topology: str, delta: bool
    ) -> None:
        """Remember that the request body with sha256 ``digest`` parses
        to plan ``key`` on ``topology``; a no-op once that plan is gone."""
        with self._lock:
            if key not in self._entries:
                return
            self._bodies[digest] = (key, topology, delta)
            self._bodies.move_to_end(digest)
            if len(self._bodies) > self.max_entries:
                self._bodies.popitem(last=False)

    def put(self, key: Tuple, payload: Dict[str, Any]) -> None:
        blob = wire_json(payload)
        entry = (blob, _hit_spans(blob))
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                evicted, _ = self._entries.popitem(last=False)
                for digest in [
                    d for d, body in self._bodies.items() if body[0] == evicted
                ]:
                    del self._bodies[digest]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }
