"""EvictionBenefitCache invalidation contract (see its docstring).

The cache keys eq. 4 benefits on ``(state.versions[obj],
len(waiting[obj]))``. The contract: every replicator-set mutation flows
through the state before the next ``get``, and waiting sets only ever
shrink. Under those rules a stamp can never repeat with different
underlying sets — even when *several* actions land between queries, as
they do in GOLCF and GMC whenever targets have room — so stale hits are
impossible.

These tests pin both sides: batched deliveries between queries force a
recompute that matches a from-scratch ``keep_benefit``, and an unchanged
stamp serves the memoized value without recomputation.
"""

import numpy as np

from repro.core.builders.common import EvictionBenefitCache
from repro.model.instance import RtspInstance
from repro.model.nearest import keep_benefit
from repro.model.state import SystemState
from repro.obs.context import use_metrics
from repro.obs.metrics import MetricsRegistry


def _instance() -> RtspInstance:
    rng = np.random.default_rng(17)
    m, n = 6, 8
    sizes = rng.integers(1, 4, size=n).astype(float)
    costs = rng.integers(1, 12, size=(m, m)).astype(float)
    costs = (costs + costs.T) / 2
    np.fill_diagonal(costs, 0.0)
    x_old = (rng.random((m, n)) < 0.5).astype(np.int8)
    x_new = (rng.random((m, n)) < 0.5).astype(np.int8)
    caps = np.maximum(x_old @ sizes, x_new @ sizes) + 6
    return RtspInstance.create(sizes, caps, costs, x_old, x_new)


def _fresh_benefit(state, target, obj, waiting) -> float:
    inst = state.instance
    return keep_benefit(
        inst.costs,
        inst.dummy,
        state.holders(obj),
        target,
        waiting[obj],
        float(inst.sizes[obj]),
    )


def test_batched_deliveries_invalidate_before_next_get():
    inst = _instance()
    state = SystemState(inst)
    obj = 0
    # Waiting targets: servers that don't hold obj (besides the ones we
    # will deliver to below).
    absent = [
        s for s in range(inst.num_servers) if not state.holds(s, obj)
    ]
    assert len(absent) >= 3, "workload draw left too few absent servers"
    waiting = {obj: set(absent)}
    target = next(s for s in range(inst.num_servers) if state.holds(s, obj))
    cache = EvictionBenefitCache(state, waiting)

    first = cache.get(target, obj)
    assert first == _fresh_benefit(state, target, obj, waiting)

    # Several deliveries land between queries — no get() in between,
    # as in a build where the targets have room. Each delivery bumps the
    # version counter and shrinks the waiting set.
    delivered = absent[:2]
    for s in delivered:
        state.apply_transfer_trusted(s, obj)
        waiting[obj].discard(s)

    second = cache.get(target, obj)
    assert second == _fresh_benefit(state, target, obj, waiting)


def test_unchanged_stamp_serves_memoized_value():
    inst = _instance()
    state = SystemState(inst)
    obj = 1
    absent = [
        s for s in range(inst.num_servers) if not state.holds(s, obj)
    ]
    holder = next(
        s for s in range(inst.num_servers) if state.holds(s, obj)
    )
    waiting = {obj: set(absent)}

    registry = MetricsRegistry()
    with use_metrics(registry):
        cache = EvictionBenefitCache(state, waiting)
        a = cache.get(holder, obj)
        b = cache.get(holder, obj)
    assert a == b
    assert registry.counter("builder.benefit_cache_misses").value == 1
    assert registry.counter("builder.benefit_cache_hits").value == 1


def test_version_bump_with_restored_set_still_recomputes():
    # Deliver then evict the same server: the replicator set returns to
    # its original value but the version counter advanced twice, so the
    # stamp differs and the cache recomputes (to the same number). This
    # is the monotonicity that makes wave batching safe.
    inst = _instance()
    state = SystemState(inst)
    obj = 2
    absent = [
        s for s in range(inst.num_servers) if not state.holds(s, obj)
    ]
    holder = next(
        s for s in range(inst.num_servers) if state.holds(s, obj)
    )
    waiting = {obj: set(absent)}

    registry = MetricsRegistry()
    with use_metrics(registry):
        cache = EvictionBenefitCache(state, waiting)
        before = cache.get(holder, obj)
        bounce = absent[0]
        state.apply_transfer_trusted(bounce, obj)
        state.apply_delete_trusted(bounce, obj)
        after = cache.get(holder, obj)
    assert before == after
    assert registry.counter("builder.benefit_cache_misses").value == 2
    assert registry.counter("builder.benefit_cache_hits").value == 0


def test_waiting_shrink_changes_stamp_even_without_version_bump():
    inst = _instance()
    state = SystemState(inst)
    obj = 3
    absent = [
        s for s in range(inst.num_servers) if not state.holds(s, obj)
    ]
    assert len(absent) >= 2
    holder = next(
        s for s in range(inst.num_servers) if state.holds(s, obj)
    )
    waiting = {obj: set(absent)}
    cache = EvictionBenefitCache(state, waiting)
    cache.get(holder, obj)
    # Shrink the waiting set without touching the replicator set (a
    # delivery to a server that was already a holder cannot do this, so
    # emulate a builder crossing a target off after a dummy-sourced
    # transfer recorded elsewhere).
    waiting[obj].discard(absent[0])
    recomputed = cache.get(holder, obj)
    assert recomputed == _fresh_benefit(state, holder, obj, waiting)
