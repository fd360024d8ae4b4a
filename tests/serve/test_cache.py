"""Topology hashing, cost-matrix store and plan-cache behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve.cache import (
    PlanCache,
    TopologyStore,
    instance_fingerprint,
    topology_hash,
)
from repro.serve.schemas import wire_json


class TestTopologyHash:
    def test_deterministic_and_dtype_canonical(self, small_instance):
        costs = small_instance.costs
        assert topology_hash(costs) == topology_hash(costs.copy())
        # float32 input normalises to the float64 hash when values agree
        assert topology_hash(costs) == topology_hash(
            costs.astype(np.float32).astype(np.float64)
        )
        assert topology_hash(costs).startswith("sha256:")

    def test_differs_on_any_entry(self, small_instance):
        perturbed = small_instance.costs.copy()
        perturbed[0, 1] += 1.0
        assert topology_hash(small_instance.costs) != topology_hash(perturbed)

    def test_fingerprint_separates_topology_collisions(
        self, small_instance
    ):
        """Same costs + different placements: topology hashes collide
        (that is the reuse), fingerprints must not."""
        from repro.model.instance import RtspInstance

        x_old = small_instance.x_old.copy()
        sibling = RtspInstance.create(
            sizes=small_instance.sizes,
            capacities=small_instance.capacities,
            costs=small_instance.costs,
            x_old=x_old,
            x_new=x_old.copy(),  # no-op transition, same topology
        )
        assert topology_hash(sibling.costs) == topology_hash(
            small_instance.costs
        )
        assert instance_fingerprint(sibling) != instance_fingerprint(
            small_instance
        )


class TestTopologyStore:
    def test_register_get_round_trip(self, small_instance):
        with TopologyStore(max_entries=4) as store:
            key, created = store.register(small_instance.costs)
            assert created
            again, created2 = store.register(small_instance.costs)
            assert again == key and not created2
            matrix = store.get(key)
            np.testing.assert_array_equal(matrix, small_instance.costs)
            assert store.stats()["hits"] == 1
            assert store.get("sha256:" + "0" * 64) is None
            assert store.stats()["misses"] == 1

    def test_lru_eviction(self):
        with TopologyStore(max_entries=2) as store:
            keys = []
            for n in (3, 4, 5):
                costs = np.zeros((n, n))
                costs += np.arange(n)
                np.fill_diagonal(costs, 0.0)
                key, _ = store.register(costs)
                keys.append(key)
            assert len(store) == 2
            assert keys[0] not in store  # oldest evicted
            assert keys[1] in store and keys[2] in store

    def test_forced_spill_and_close_unlinks(self, small_instance):
        store = TopologyStore(max_entries=2, spill=True)
        key, _ = store.register(small_instance.costs)
        assert store.stats()["spilled"] == 1
        matrix = store.get(key)
        np.testing.assert_array_equal(matrix, small_instance.costs)
        store.close()
        assert len(store) == 0

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            TopologyStore(max_entries=0)


class TestCostMatrixStoreMatrixProperty:
    def test_matrix_property_spilled_and_in_ram(self, small_instance):
        from repro.shard.mmapcost import CostMatrixStore

        in_ram = CostMatrixStore.from_matrix(small_instance.costs, spill=False)
        np.testing.assert_array_equal(in_ram.matrix, small_instance.costs)
        with CostMatrixStore.from_matrix(
            small_instance.costs, spill=True
        ) as spilled:
            assert spilled.spilled
            np.testing.assert_array_equal(
                np.asarray(spilled.matrix), small_instance.costs
            )


class TestPlanCache:
    def test_hit_returns_fresh_copies(self):
        cache = PlanCache(max_entries=4)
        key = PlanCache.key("sha256:f", "GOLCF", 0, None)
        assert cache.get(key) is None
        cache.put(key, {"cost": 1.0, "schedule": {"actions": [["D", 0, 1]]}})
        first = cache.get(key)
        first["cost"] = 999.0  # corrupting the copy must not leak back
        second = cache.get(key)
        assert second["cost"] == 1.0
        assert cache.stats() == {"entries": 1, "hits": 2, "misses": 1}

    def test_lru_eviction(self):
        cache = PlanCache(max_entries=2)
        for seed in range(3):
            cache.put(PlanCache.key("f", "GOLCF", seed, None), {"seed": seed})
        assert len(cache) == 2
        assert cache.get(PlanCache.key("f", "GOLCF", 0, None)) is None
        assert cache.get(PlanCache.key("f", "GOLCF", 2, None)) == {"seed": 2}

    def test_hit_body_splices_the_stored_bytes(self):
        cache = PlanCache(max_entries=4)
        key = PlanCache.key("sha256:f", "GOLCF", 0, None)
        assert cache.hit_body(key, 0.5) is None
        payload = {
            "cache_hit": False,
            "cost": 2.5,
            "elapsed_seconds": 0.125,
            # The key text inside a string is escaped, so it never matches.
            "pipeline": 'x"cache_hit":true,"elapsed_seconds":1}',
            "schedule": {"actions": [["D", 0, 1]]},
        }
        cache.put(key, payload)
        for elapsed in (0.5, 1.25e-05, 3.0e16, float("nan")):
            expected = wire_json(
                {**payload, "cache_hit": True, "elapsed_seconds": elapsed}
            )
            assert cache.hit_body(key, elapsed) == expected
        assert cache.get(key) == payload
        assert cache.stats() == {"entries": 1, "hits": 5, "misses": 1}

    @pytest.mark.parametrize(
        "payload",
        [
            {"seed": 1},
            {"cache_hit": False},
            {"cache_hit": False, "elapsed_seconds": "soon"},
            {"cache_hit": False, "elapsed_seconds": 1.0, "x": {"cache_hit": True}},
            # A key ending in the key text matches again, escape and all.
            {"cache_hit": False, "elapsed_seconds": 1.0, 'x"cache_hit': True},
        ],
    )
    def test_hit_body_needs_each_key_once(self, payload):
        cache = PlanCache()
        cache.put(("k",), payload)
        with pytest.raises(ValueError):
            cache.hit_body(("k",), 0.5)
        assert cache.get(("k",)) == payload

    def test_key_separates_pipeline_seed_shards(self):
        keys = {
            PlanCache.key("f", "GOLCF", 0, None),
            PlanCache.key("f", "GOLCF", 1, None),
            PlanCache.key("f", "GOLCF+H1", 0, None),
            PlanCache.key("f", "GOLCF", 0, 2),
            PlanCache.key("g", "GOLCF", 0, None),
        }
        assert len(keys) == 5

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)


def _plan(seed):
    return {"cache_hit": False, "elapsed_seconds": 0.25, "seed": seed}


class TestBodyDigests:
    def test_a_digest_hit_is_hit_body(self, small_instance):
        cache = PlanCache()
        with TopologyStore() as topologies:
            topology, _ = topologies.register(small_instance.costs)
            key = PlanCache.key("f", "GOLCF", 0, None)
            cache.add_body(b"d", key, topology, False)  # no plan yet
            assert cache.hit_digest(b"d", 0.5, topologies) is None
            cache.put(key, _plan(0))
            cache.add_body(b"d", key, topology, False)
            cache.add_body(b"e", key, topology, True)
            assert cache.stats() == {"entries": 1, "hits": 0, "misses": 0}
            assert cache.hit_digest(b"d", 0.5, topologies) == cache.hit_body(
                key, 0.5
            )
            assert cache.stats()["hits"] == 2
            assert topologies.stats()["hits"] == 0  # a full instance's touch
            assert cache.hit_digest(b"e", 0.5, topologies) is not None
            assert topologies.stats()["hits"] == 1  # a delta's lookup

    def test_a_fall_through_counts_nothing(self, small_instance):
        cache = PlanCache(max_entries=1)
        with TopologyStore() as topologies:
            topology, _ = topologies.register(small_instance.costs)
            first = PlanCache.key("f", "GOLCF", 0, None)
            cache.put(first, _plan(0))
            cache.add_body(b"d", first, topology, True)
            cache.add_body(b"gone", first, "sha256:elsewhere", True)
            assert cache.hit_digest(b"unknown", 0.5, topologies) is None
            assert cache.hit_digest(b"gone", 0.5, topologies) is None
            cache.put(PlanCache.key("f", "GOLCF", 1, None), _plan(1))
            assert cache.hit_digest(b"d", 0.5, topologies) is None
            assert cache.stats() == {"entries": 1, "hits": 0, "misses": 0}
            assert topologies.stats()["hits"] == 0
            assert topologies.stats()["misses"] == 0
            assert cache._bodies == {}

    def test_concurrent_hits_lose_no_count(self, small_instance):
        import random
        import sys
        import threading

        cache = PlanCache(max_entries=4)
        with TopologyStore() as topologies:
            topology, _ = topologies.register(small_instance.costs)
            hits = [0] * 6
            stop = threading.Event()

            def churn(worker):
                # Six plans and their bodies through four slots: hits,
                # plan evictions and body evictions all race.
                draw = random.Random(worker)
                while not stop.is_set():
                    seed = draw.randrange(6)
                    key = PlanCache.key("f", "GOLCF", seed, None)
                    digest = bytes([seed])
                    if cache.hit_digest(digest, 0.0, topologies) is not None:
                        hits[worker] += 1
                    else:
                        cache.put(key, _plan(seed))
                        cache.add_body(digest, key, topology, True)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [
                    threading.Thread(target=churn, args=(w,)) for w in range(6)
                ]
                for thread in threads:
                    thread.start()
                stop.wait(0.5)
                stop.set()
                for thread in threads:
                    thread.join(timeout=10.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert sum(hits) > 0
            assert cache.hits == sum(hits)
            assert topologies.stats()["hits"] == sum(hits)
            assert len(cache._bodies) <= 4
            # Every remembered body still has its plan.
            keys = [body[0] for body in cache._bodies.values()]
            assert all(key in cache._entries for key in keys)
