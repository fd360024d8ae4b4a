"""Shared bookkeeping for the schedule builders.

Builders drive a single :class:`~repro.model.state.SystemState` forward
and never replay their own prefix: every decision (nearest source, free
space, eviction benefit) is answered incrementally by the state. The
helpers here are the one builder core all five builders share:

* :class:`ActionLog` — where every action is emitted: it applies the
  action to the state through the trusted mutators, appends it to the
  schedule, and keeps the build's counters and heartbeats;
* the two work lists — pending transfers (one per outstanding cell) and
  pending deletions (one per superfluous cell);
* :class:`PendingTransferSelector` — the cheapest pending transfer
  against the current state: dirty objects are rescanned, and a heap of
  per-object minima keyed ``(cost, flat position)`` answers with the
  first minimum a whole-array ``np.argmin`` would give (GOLCF, GMC);
* the benefit-ordered eviction used by the greedy builders to make room
  at a transfer target (paper eq. 4), which looks benefits up lazily and
  stops at the first zero, since no benefit is negative.

Each step's work is proportional to the decisions it takes: the
selector rescans only what changed, an eviction looks up only the
benefits it needs, and the state answers every scalar query from
Python-native storage (:mod:`repro.model.state`).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Set, Tuple

from repro.model.actions import Action, Delete, Transfer
from repro.model.instance import RtspInstance
from repro.model.nearest import keep_benefit
from repro.model.schedule import Schedule
from repro.model.state import CAPACITY_EPS, SystemState
from repro.obs.context import current_metrics, current_tracer

from repro.core.base import shuffled_pairs

#: Transfers between ``builder.progress`` heartbeat events. A count
#: boundary, not a clock, so the trace stays deterministic.
_HEARTBEAT_EVERY = 256


class ActionLog:
    """The build's state and action list; every builder emits through it.

    Actions are applied with the state's trusted mutators
    (:meth:`~repro.model.state.SystemState.apply_transfer_trusted`,
    ``apply_delete_trusted``): no per-action validation runs, because
    every builder emits only actions valid by construction — a transfer
    from the nearest live replicator (the dummy when none exists) to a
    target that lacks the object and has room, a deletion of a replica
    that is present. The strict oracle re-checks builder output from
    first principles (``tests/properties/test_builder_properties.py``,
    the exact differential suite).

    Metrics instruments and the tracer are captured once per build,
    so with observability off each action pays one ``is None`` test.
    """

    __slots__ = (
        "state",
        "free",
        "_actions",
        "_dummy",
        "_transfers",
        "_dummy_transfers",
        "_evictions",
        "_tracer",
        "_delivered",
    )

    def __init__(self, instance: RtspInstance) -> None:
        self.state = SystemState(instance)
        #: Live read-only view of per-server free storage.
        self.free = self.state.free_array()
        self._actions: List[Action] = []
        self._dummy = instance.dummy
        registry = current_metrics()
        if registry is None:
            self._transfers = self._dummy_transfers = self._evictions = None
        else:
            self._transfers = registry.counter("builder.transfers")
            self._dummy_transfers = registry.counter("builder.dummy_transfers")
            self._evictions = registry.counter("builder.evictions")
        tracer = current_tracer()
        self._tracer = tracer if tracer.enabled else None
        self._delivered = 0

    def transfer(
        self, target: int, obj: int, source: Optional[int] = None
    ) -> None:
        """Transfer ``obj`` to ``target`` from its nearest current source
        (the dummy server when no real replicator exists).

        A caller that has just computed ``state.nearest(target, obj)``
        passes it as ``source`` instead of having it recomputed.
        """
        state = self.state
        if source is None:
            source = state.nearest(target, obj)
        state.apply_transfer_trusted(target, obj)
        self._actions.append(Transfer(target, obj, source))
        if self._transfers is not None:
            self._transfers.value += 1
            if source == self._dummy:
                self._dummy_transfers.value += 1
        if self._tracer is not None:
            self._delivered += 1
            if self._delivered % _HEARTBEAT_EVERY == 0:
                self._tracer.event(
                    "builder.progress", transfers=self._delivered
                )

    def delete(self, server: int, obj: int) -> None:
        """Delete the replica of ``obj`` held at ``server``."""
        self.state.apply_delete_trusted(server, obj)
        self._actions.append(Delete(server, obj))

    def evicted(self, count: int) -> None:
        """Count ``count`` deletions made to free space for a transfer."""
        if self._evictions is not None and count:
            self._evictions.value += count

    def schedule(self) -> Schedule:
        """The emitted actions, in order."""
        return Schedule(self._actions)


def pending_transfer_map(
    instance: RtspInstance, gen
) -> Tuple[Dict[int, List[int]], Dict[int, Set[int]]]:
    """Outstanding cells as ``obj -> [targets]`` plus a set-valued mirror.

    The list order is shuffled once so that every tie-break taken by a
    first-minimum scan is seed-dependent; the set mirror feeds
    :class:`EvictionBenefitCache` (eq. 4 expects ``obj -> set``) and must
    be kept in sync by the caller as transfers complete.
    """
    targets: Dict[int, List[int]] = {}
    for i, k in shuffled_pairs(instance.outstanding(), gen):
        targets.setdefault(k, []).append(i)
    waiting = {k: set(v) for k, v in targets.items()}
    return targets, waiting


def pending_deletion_map(instance: RtspInstance, gen) -> Dict[int, List[int]]:
    """Superfluous cells as ``server -> [objects]``, shuffled per server."""
    dels: Dict[int, List[int]] = {}
    for i, k in shuffled_pairs(instance.superfluous(), gen):
        dels.setdefault(i, []).append(k)
    return dels


class PendingTransferSelector:
    """Incremental argmin over every pending transfer's current cost.

    GOLCF and GMC repeatedly need the globally cheapest pending transfer
    — ``size(O_k) * l_{i,N(i,k,X)}`` over all outstanding ``(i, k)`` —
    against the *current* state. Only objects whose replicator set
    changed since the last query (the builder reports those through
    :meth:`mark_dirty`: the delivered transfer's object plus any eviction
    victims) are rescanned; each rescan pushes the object's cheapest
    entry onto a heap, and the global choice is the top of that heap.

    A rescan walks the live holder set of the object per pending target:
    ``size * min(row[dummy], row[j] for j in holders)``. Pending targets
    never hold their own object (a target leaves the pending list before
    its replica is recorded, and eq. 4 evictions only ever remove
    superfluous replicas), so the scan needs no self-exclusion.

    Tie-breaking is a first minimum over one flat order: objects in
    work-list (insertion) order, then each object's pending targets in
    list order. Every entry has a flat position (the object's base plus
    the target's current list index), a rescan keeps the object's first
    minimum, and heap entries are keyed ``(cost, flat position)`` — so
    the heap's top is exactly the entry a first-minimum ``np.argmin``
    over the whole flat cost array would return. An entry is stale once
    its object is popped or rescanned; a per-object stamp identifies
    the live entry, and stale ones are dropped when they reach the top.
    """

    def __init__(
        self, state: SystemState, targets: Dict[int, List[int]]
    ) -> None:
        self._state = state
        self._dummy = state.dummy
        self._sizes = state.instance.sizes.tolist()
        self._pend = {k: list(v) for k, v in targets.items()}
        self._base: Dict[int, int] = {}
        total = 0
        for k, pend in self._pend.items():
            self._base[k] = total
            total += len(pend)
        #: Stamp of each pending object's live heap entry.
        self._stamp = dict.fromkeys(self._pend, 0)
        self._heap: List[Tuple[float, int, int, int]] = []
        self._dirty = set(self._pend)
        registry = current_metrics()
        if registry is None:
            self._c_scanned = self._c_refreshes = self._c_queries = None
        else:
            self._c_scanned = registry.counter("builder.candidates_scanned")
            self._c_refreshes = registry.counter("builder.selector_refreshes")
            self._c_queries = registry.counter("builder.selector_queries")

    def _refresh_obj(self, obj: int) -> None:
        pend = self._pend[obj]
        size = self._sizes[obj]
        holders = self._state.holders(obj)
        if self._c_scanned is not None:
            self._c_refreshes.value += 1
            self._c_scanned.value += len(pend) * (len(holders) + 1)
        rows = self._state.cost_rows
        dummy = self._dummy
        best_cost, best_off = None, 0
        for off, t in enumerate(pend):
            row = rows[t]
            best = row[dummy]
            for j in holders:
                c = row[j]
                if c < best:
                    best = c
            cost = size * best
            if best_cost is None or cost < best_cost:
                best_cost, best_off = cost, off
        stamp = self._stamp[obj] + 1
        self._stamp[obj] = stamp
        heappush(self._heap, (best_cost, self._base[obj] + best_off, stamp, obj))

    def mark_dirty(self, obj: int) -> None:
        """Note that ``obj``'s replicator set changed; refreshed lazily."""
        if obj in self._pend:
            self._dirty.add(obj)

    def best(self) -> Tuple[int, int, int]:
        """``(obj, position, target)`` of the cheapest pending transfer."""
        if self._c_queries is not None:
            self._c_queries.value += 1
        if self._dirty:
            for obj in self._dirty:
                self._refresh_obj(obj)
            self._dirty.clear()
        heap, stamps = self._heap, self._stamp
        while True:
            _, flat, stamp, obj = heap[0]
            if stamps.get(obj) == stamp:
                break
            heappop(heap)
        pos = flat - self._base[obj]
        return obj, pos, self._pend[obj][pos]

    def pop_object(self, obj: int) -> None:
        """Remove ``obj`` entirely (GOLCF serves it whole)."""
        del self._pend[obj]
        del self._stamp[obj]
        self._dirty.discard(obj)

    def pop_target(self, obj: int, pos: int) -> None:
        """Remove one pending target of ``obj`` (GMC serves singly)."""
        pend = self._pend[obj]
        pend.pop(pos)
        if pend:
            # Later targets shifted left; rescan at the next query.
            self._dirty.add(obj)
        else:
            self.pop_object(obj)

    @property
    def exhausted(self) -> bool:
        """Whether no pending transfer remains."""
        return not self._pend


class EvictionBenefitCache:
    """Memoized eq. 4 benefits, invalidated by observable state changes.

    ``B(target, k)`` depends only on ``k``'s replicator set, ``k``'s
    still-waiting target set, and the (immutable) cost matrix. The
    former is captured by the state's per-object version counter
    (:attr:`~repro.model.state.SystemState.versions`); the latter only
    ever *shrinks* during a build, so its size uniquely identifies it
    along the trajectory. A cached value is
    therefore exact while both stamps match — no eviction ordering can
    change it — and recomputed (through
    :func:`~repro.model.nearest.keep_benefit`) otherwise.

    Invalidation contract (holds however many deliveries land between
    two queries — GOLCF and GMC only query when a target lacks room):

    1. every mutation of ``obj``'s replicator set must flow through the
       owning state (so ``state.versions[obj]`` bumps) *before* the next
       :meth:`get` — the trusted mutators preserve this;
    2. ``waiting[obj]`` must only ever shrink, and each removal must
       happen before the next :meth:`get`. Because the version counter
       is monotone, a batch of ``d`` deliveries advances the stamp by at
       least ``d`` on both components — a stamp can never repeat with
       different underlying sets, so stale hits are impossible no matter
       how many actions land between queries. Re-adding a target to
       ``waiting`` (which no builder does) would violate the contract:
       the set size could return to a previously-stamped value.

    ``tests/core/test_benefit_cache_contract.py`` exercises both the
    batched-delivery recompute and the stamp-match fast path.
    """

    __slots__ = ("_state", "_waiting", "_store", "_c_hits", "_c_misses")

    def __init__(self, state: SystemState, waiting: Dict[int, Set[int]]) -> None:
        self._state = state
        self._waiting = waiting
        self._store: Dict[Tuple[int, int], Tuple[Tuple[int, int], float]] = {}
        registry = current_metrics()
        if registry is None:
            self._c_hits = self._c_misses = None
        else:
            self._c_hits = registry.counter("builder.benefit_cache_hits")
            self._c_misses = registry.counter("builder.benefit_cache_misses")

    def get(self, target: int, obj: int) -> float:
        pending = self._waiting.get(obj)
        if not pending:
            return 0.0
        key = (target, obj)
        state = self._state
        stamp = (state.versions[obj], len(pending))
        hit = self._store.get(key)
        if hit is not None and hit[0] == stamp:
            if self._c_hits is not None:
                self._c_hits.value += 1
            return hit[1]
        if self._c_misses is not None:
            self._c_misses.value += 1
        instance = state.instance
        value = keep_benefit(
            instance.costs,
            instance.dummy,
            state.holders(obj),
            target,
            pending,
            float(instance.sizes[obj]),
        )
        self._store[key] = (stamp, value)
        return value


def evict_for(
    log: ActionLog,
    target: int,
    obj: int,
    deletions: Dict[int, List[int]],
    benefit_cache: EvictionBenefitCache,
) -> List[int]:
    """Delete superfluous replicas at ``target`` until ``obj`` fits.

    Victims are chosen by lowest deletion benefit (paper eq. 4): the
    replica whose disappearance hurts the still-waiting targets least goes
    first. Ties fall to the earliest entry of the (pre-shuffled) per-server
    deletion list, so tie-breaking is seed-dependent but deterministic.
    Returns the evicted objects so callers can invalidate derived caches
    (:meth:`PendingTransferSelector.mark_dirty`).

    Benefits are looked up lazily, in list order, and the scan for a
    victim stops at the first zero. A benefit is never negative: each
    term is ``size * (l[N2] - l[N])`` with ``size > 0`` and ``N2`` no
    cheaper than ``N``. So a zero is the minimum value, and the first
    zero is the first minimum a scan over the whole list would return.
    Benefits already looked up stay valid across the evictions of one
    call — deleting a victim at ``target`` changes neither the other
    candidates' replicator sets nor any waiting set — so each candidate
    is looked up at most once per call, and never more often than the
    whole-list scan would.

    A victim always exists while space is short: every replica held at
    ``target`` is either part of ``X_old ∩ X_new``, was delivered by an
    earlier transfer (both within the ``X_new`` row, which fits), or is a
    not-yet-deleted superfluous replica.
    """
    candidates = deletions.get(target)
    victims: List[int] = []
    state = log.state
    size = float(state.instance.sizes[obj])
    # benefits[p] is the eq. 4 benefit of candidates[p], for the prefix
    # looked up so far.
    benefits: List[float] = []
    while state.free_space(target) + CAPACITY_EPS < size:
        assert candidates, (
            f"no superfluous replica left at S_{target} while O_{obj} "
            "does not fit; X_new would violate its capacity"
        )
        best_pos, best_benefit = 0, None
        for pos, benefit in enumerate(benefits):
            if best_benefit is None or benefit < best_benefit:
                best_pos, best_benefit = pos, benefit
        while best_benefit != 0.0 and len(benefits) < len(candidates):
            benefit = benefit_cache.get(target, candidates[len(benefits)])
            benefits.append(benefit)
            if best_benefit is None or benefit < best_benefit:
                best_pos, best_benefit = len(benefits) - 1, benefit
        victim = candidates.pop(best_pos)
        benefits.pop(best_pos)
        log.delete(target, victim)
        victims.append(victim)
    log.evicted(len(victims))
    return victims


def flush_deletions(
    log: ActionLog, deletions: Dict[int, List[int]], gen
) -> None:
    """Emit every still-pending deletion, in a shuffled global order."""
    leftovers = [
        (server, obj) for server, objs in deletions.items() for obj in objs
    ]
    gen.shuffle(leftovers)
    for server, obj in leftovers:
        log.delete(server, obj)
    deletions.clear()
