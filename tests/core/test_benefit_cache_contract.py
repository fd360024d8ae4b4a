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
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builders.common import ActionLog, EvictionBenefitCache, evict_for
from repro.model.instance import RtspInstance
from repro.model.nearest import keep_benefit
from repro.model.state import CAPACITY_EPS, SystemState
from repro.obs.context import use_metrics
from repro.obs.metrics import MetricsRegistry
from tests.properties.test_schedule_properties import COMMON, instances


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


# ----------------------------------------------------------------------
# evict_for: the lazy first-zero scan against the whole-list scan
# ----------------------------------------------------------------------
def _full_scan_evict_for(log, target, obj, deletions, benefit_cache):
    """Reference: look up every candidate's benefit once per call, then
    evict the first minimum of the remaining list until ``obj`` fits."""
    candidates = deletions.get(target)
    victims = []
    size = float(log.state.instance.sizes[obj])
    benefits = []
    while log.state.free_space(target) + CAPACITY_EPS < size:
        if not victims:
            benefits = [benefit_cache.get(target, k) for k in candidates]
        best_pos = min(range(len(benefits)), key=lambda p: (benefits[p], p))
        victims.append(candidates.pop(best_pos))
        benefits.pop(best_pos)
        log.delete(target, victims[-1])
    return victims


class _CountingLookups:
    """A benefit cache stand-in that counts its lookups."""

    def __init__(self, lookup):
        self.lookup = lookup
        self.lookups = 0

    def get(self, target, obj):
        self.lookups += 1
        return self.lookup(target, obj)


def _crowded_instance(num_candidates: int, needed: int) -> RtspInstance:
    # S_0 is full of superfluous unit-size replicas (objects 0..c-1) and
    # must receive object c of size ``needed``: ``needed`` evictions.
    c = num_candidates
    m, n = 2, c + 1
    sizes = np.ones(n)
    sizes[c] = needed
    x_old = np.zeros((m, n), dtype=np.int8)
    x_old[0, :c] = 1
    x_old[1] = 1
    x_new = np.zeros((m, n), dtype=np.int8)
    x_new[0, c] = 1
    x_new[1] = 1
    caps = np.array([float(c), float(sizes.sum())])
    costs = np.array([[0.0, 3.0], [3.0, 0.0]])
    return RtspInstance.create(sizes, caps, costs, x_old, x_new)


@pytest.mark.parametrize("needed", [1, 3])
@pytest.mark.parametrize(
    "values",
    [
        [0.0, 2.0, 1.0, 3.0, 4.0],  # zero first
        [3.0, 2.0, 1.0, 4.0, 0.0],  # zero last
        [2.0, 1.0, 1.0, 0.0, 0.0],  # ties, zero and non-zero
        [1.0, 1.0, 1.0, 1.0, 1.0],  # all tie, no zero
        [5.0, 3.0, 4.0, 3.0, 6.0],  # no zero
        [2.0, 0.0, 1.0, 0.0, 3.0],  # several zeros
    ],
)
def test_lazy_eviction_matches_full_scan(values, needed):
    inst = _crowded_instance(len(values), needed)
    obj = len(values)
    runs = []
    for evict in (evict_for, _full_scan_evict_for):
        log = ActionLog(inst)
        benefits = _CountingLookups(lambda target, k: values[k])
        deletions = {0: list(range(len(values)))}
        victims = evict(log, 0, obj, deletions, benefits)
        runs.append((victims, deletions[0], log.schedule(), benefits.lookups))
    (lazy, lazy_left, lazy_sched, lazy_n), (full, full_left, full_sched, full_n) = runs
    assert len(lazy) == needed
    assert lazy == full and lazy_left == full_left
    assert lazy_sched.actions() == full_sched.actions()
    assert lazy_n <= full_n
    if 0.0 in values and needed == 1:
        # A zero stops the scan: nothing after it is looked up.
        assert lazy_n == values.index(0.0) + 1


@given(inst=instances(), data=st.data())
@settings(**COMMON)
def test_lazy_eviction_matches_full_scan_on_real_benefits(inst, data):
    # Every outstanding cell whose target lacks room, evicting from a
    # shuffled deletion list with real eq. 4 benefits: both scans pick
    # the same victims, and the lazy one looks up no more benefits.
    rows, cols = np.nonzero(inst.outstanding())
    for target, obj in zip(rows.tolist(), cols.tolist()):
        superfluous = np.flatnonzero(inst.superfluous()[target]).tolist()
        order = data.draw(st.permutations(superfluous))
        runs = []
        for evict in (evict_for, _full_scan_evict_for):
            log = ActionLog(inst)
            waiting = {}
            for i, k in zip(rows.tolist(), cols.tolist()):
                waiting.setdefault(k, set()).add(i)
            waiting[obj].discard(target)
            counting = _CountingLookups(EvictionBenefitCache(log.state, waiting).get)
            deletions = {target: list(order)}
            victims = evict(log, target, obj, deletions, counting)
            runs.append((victims, log.state.placement(), counting.lookups))
        (lazy, lazy_x, lazy_n), (full, full_x, full_n) = runs
        assert lazy == full
        assert (lazy_x == full_x).all()
        assert lazy_n <= full_n
