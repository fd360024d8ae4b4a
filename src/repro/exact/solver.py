"""Branch-and-bound optimal RTSP solver for small instances.

RTSP-decision is NP-complete (paper §3.4, via 0/1-Knapsack), so no
polynomial algorithm is expected — but at toy scale (≤ ~8 servers ×
~10 objects) an exhaustive search with good pruning proves optima in
well under a second, which is all the differential harness needs to
measure true optimality gaps of the heuristics.

The search walks valid action sequences depth-first with four exact
(optimality-preserving) reductions:

1. **Symmetric-source canonicalization** — after ``T_ikj`` the placement
   matrix is identical *whatever the source* ``j``; only the cost
   differs. Branching on any source other than the currently nearest one
   is therefore dominated, so each missing replica contributes exactly
   one transfer candidate per node (ties break toward the lowest server
   index, matching :func:`~repro.model.nearest.nearest`).
2. **Deletions-first canonicalization** — deletions are free, so any
   schedule can be rewritten to delete a superfluous replica either
   right before a transfer *into the same server* (to make room) or at
   the very end. The search branches on deletions only where they can
   matter (servers still awaiting an incoming replica, plus staged
   copies of still-pending objects) and flushes the rest at the leaf.
   Superfluous replicas of *completed* objects can never serve as a
   useful source again and are deleted eagerly without branching.
3. **Dominance memoization** — the placement matrix fully captures the
   search state; re-reaching a placement at equal or higher cost is
   pruned (the hash table stores the best cost per placement hash).
4. **Admissible lower bound** — the per-replica floor of
   :func:`repro.analysis.bounds.residual_lower_bound` (each missing
   replica ``(i, k)`` costs at least ``s(O_k) * min_{j != i} l_ij``
   whatever its eventual source; tighter nearest-*holder* bounds are
   inadmissible once relaying is allowed, because shared delivery
   chains double-count), strengthened by an exact per-object *entry*
   term: the chronologically first transfer of each pending object must
   source **directly** from a current holder or the dummy, so either
   one pending target pays its distance to that holder set instead of
   its global floor, or an uncounted staging hop out of the holder set
   is paid on top. Nodes whose ``cost + bound`` reaches the incumbent
   are cut.

The searched space is that of *conservative* schedules: a replica
mandated by ``X_new`` is never deleted once present (so it is never
deleted-and-refetched to make temporary room). Every builder, optimizer
and repaired trace in this repository produces conservative schedules,
so differential gaps against this optimum are meaningful; the paper's
worst-case argument (§3.3) also lives entirely in this space.

The incumbent is seeded with the best heuristic pipeline result
(deterministic, ``rng=0``), so the search starts with a tight upper
bound instead of discovering one. With staging off, a seed that stages
a copy outside ``X_new`` is skipped: it lies outside the searched space.

:func:`decide_rtsp` answers the paper's RTSP-decision question from the
same certificate.

Budgets and statuses
--------------------
:class:`SolverBudget` caps explored nodes and wall-clock seconds. A
search that exhausts the space within budget returns
:data:`PROVED_OPTIMAL` — the cost is a certificate. A search cut short
returns :data:`BEST_FOUND` — the best incumbent plus the certified root
lower bound. Node budgets are deterministic; time budgets are not
(golden corpora must therefore rely on node budgets only, which the
defaults do).

When a metrics registry is active (:mod:`repro.obs`), the solver bumps
``exact.nodes``, ``exact.pruned_bound``, ``exact.pruned_memo`` and
``exact.incumbent_updates``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.pipeline import build_pipeline
from repro.exact.validate import assert_invariants
from repro.model.actions import Action, Delete, Transfer
from repro.model.instance import RtspInstance
from repro.model.schedule import Schedule
from repro.model.state import SystemState
from repro.obs.context import current_metrics

__all__ = [
    "PROVED_OPTIMAL",
    "BEST_FOUND",
    "SolverBudget",
    "SolveStats",
    "SolveResult",
    "BranchAndBoundSolver",
    "solve_optimal",
    "decide_rtsp",
]

#: The search space was exhausted: ``cost`` is the proven optimum.
PROVED_OPTIMAL = "PROVED_OPTIMAL"
#: A budget cut the search short: ``cost`` is an upper bound only.
BEST_FOUND = "BEST_FOUND"

#: Pipelines that seed the incumbent (deterministic, rng=0).
_SEED_PIPELINES: Tuple[str, ...] = ("GOLCF+H1+H2+OP1", "GSDF")


@dataclass(frozen=True)
class SolverBudget:
    """Search budget. ``max_seconds=None`` keeps runs deterministic."""

    max_nodes: int = 200_000
    max_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError("max_seconds must be positive when set")


@dataclass
class SolveStats:
    """Search effort counters, mirrored into :mod:`repro.obs` when active."""

    nodes: int = 0
    pruned_bound: int = 0
    pruned_memo: int = 0
    incumbent_updates: int = 0
    memo_size: int = 0
    elapsed_seconds: float = 0.0


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact search.

    ``lower_bound`` is always certified: the root relaxation when the
    budget ran out, the optimum itself when proved. ``gap_certificate``
    is hence an upper bound on how far ``cost`` can be from optimal.
    """

    status: str
    schedule: Schedule
    cost: float
    lower_bound: float
    stats: SolveStats = field(repr=False, default_factory=SolveStats)

    @property
    def proved_optimal(self) -> bool:
        """Whether ``cost`` is the certified optimum."""
        return self.status == PROVED_OPTIMAL

    @property
    def gap_certificate(self) -> float:
        """Certified relative optimality gap of ``cost`` (0 when proved)."""
        if self.proved_optimal or self.lower_bound <= 0.0:
            return 0.0
        return (self.cost - self.lower_bound) / self.lower_bound


class BranchAndBoundSolver:
    """Exact minimum-cost schedule search (see module docstring).

    Parameters
    ----------
    budget:
        Node/time caps; defaults prove every corpus instance optimal.
    allow_staging:
        Explore transfers onto servers outside ``X_new`` (the paper's
        "arbitrary intermediate nodes"). Required for instances where
        relaying is optimal; enlarges the branching factor.
    seed_incumbent:
        Seed the upper bound with deterministic heuristic runs before
        searching. Disable only to exercise the raw search in tests.
    """

    def __init__(
        self,
        budget: SolverBudget = SolverBudget(),
        allow_staging: bool = True,
        seed_incumbent: bool = True,
    ) -> None:
        self.budget = budget
        self.allow_staging = allow_staging
        self.seed_incumbent = seed_incumbent

    # ------------------------------------------------------------------
    def solve(self, instance: RtspInstance) -> SolveResult:
        """Search for the minimum-cost valid schedule of ``instance``."""
        self._instance = instance
        self._stats = SolveStats()
        self._memo: dict = {}
        self._deadline = (
            None
            if self.budget.max_seconds is None
            else time.monotonic() + self.budget.max_seconds
        )
        self._out_of_budget = False
        started = time.monotonic()

        # Static admissible floor per target server (non-triangle case).
        m = instance.num_servers
        masked = np.array(instance.costs[:m, : m + 1], dtype=np.float64)
        for i in range(m):
            masked[i, i] = np.inf
        self._min_row = masked.min(axis=1)

        self._best_cost = float("inf")
        self._best_actions: Optional[List[Action]] = None
        if self.seed_incumbent:
            self._seed_from_heuristics(instance)

        state = SystemState(instance)
        root_bound = self._lower_bound(state, self._pending(state))
        self._dfs(state, 0.0, [])

        self._stats.memo_size = len(self._memo)
        self._stats.elapsed_seconds = time.monotonic() - started
        self._publish_counters()

        # The dummy server guarantees a solution exists, and the seeded
        # incumbent (or any leaf reached before the budget died) provides
        # it; _best_actions is only None if the budget was pathologically
        # small AND seeding was disabled.
        if self._best_actions is None:
            return SolveResult(
                status=BEST_FOUND,
                schedule=Schedule(),
                cost=float("inf"),
                lower_bound=root_bound,
                stats=self._stats,
            )
        status = BEST_FOUND if self._out_of_budget else PROVED_OPTIMAL
        cost = float(self._best_cost)
        schedule = Schedule(self._best_actions)
        # Self-check: an exact solver must never emit an invalid schedule.
        assert_invariants(instance, schedule, context="exact solver")
        return SolveResult(
            status=status,
            schedule=schedule,
            cost=cost,
            lower_bound=cost if status == PROVED_OPTIMAL else root_bound,
            stats=self._stats,
        )

    # ------------------------------------------------------------------
    # incumbent seeding
    # ------------------------------------------------------------------
    def _seed_from_heuristics(self, instance: RtspInstance) -> None:
        x_new = instance.x_new
        for spec in _SEED_PIPELINES:
            schedule = build_pipeline(spec).run(instance, rng=0)
            if not self.allow_staging and any(
                isinstance(a, Transfer) and not x_new[a.target, a.obj]
                for a in schedule
            ):
                continue  # a staging seed lies outside the searched space
            report = schedule.validate(instance)
            if report.ok and report.cost < self._best_cost:
                self._best_cost = report.cost
                self._best_actions = schedule.actions()

    # ------------------------------------------------------------------
    # bounds and bookkeeping
    # ------------------------------------------------------------------
    def _pending(self, state: SystemState) -> List[Tuple[int, int]]:
        inst = self._instance
        x_new = inst.x_new
        return [
            (i, k)
            for i in range(inst.num_servers)
            for k in range(inst.num_objects)
            if x_new[i, k] and not state.holds(i, k)
        ]

    def _lower_bound(
        self, state: SystemState, pending: List[Tuple[int, int]]
    ) -> float:
        """Admissible remaining-cost bound (see module docstring, rule 4)."""
        inst = self._instance
        sizes, costs, dummy = inst.sizes, inst.costs, inst.dummy
        min_row = self._min_row
        total = 0.0
        per_obj: dict = {}
        for i, k in pending:
            total += float(sizes[k]) * float(min_row[i])
            per_obj.setdefault(k, []).append(i)

        # Entry term, per pending object: the first transfer of O_k must
        # source directly from holders(k) ∪ {dummy}. Either its target
        # is a pending one — then that target pays its holder-set
        # distance h_i, not just its floor — or it is a staging server
        # whose (uncounted) hop costs at least min_w h_w.
        for k, targets in per_obj.items():
            holders = state.replicators(k)
            delta = float("inf")
            for i in targets:
                h = float(costs[i, dummy])
                for j in holders:
                    if j != i:
                        h = min(h, float(costs[i, j]))
                delta = min(delta, h - float(min_row[i]))
                if delta <= 0.0:
                    break
            if delta > 0.0:
                target_set = set(targets)
                for w in range(inst.num_servers):
                    if delta <= 0.0:
                        break
                    if w in target_set or w in holders or state.holds(w, k):
                        continue
                    h = float(costs[w, dummy])
                    for j in holders:
                        if j != w:
                            h = min(h, float(costs[w, j]))
                    delta = min(delta, h)
            if delta > 0.0:
                total += float(sizes[k]) * delta
        return total

    def _budget_exhausted(self) -> bool:
        if self._stats.nodes >= self.budget.max_nodes:
            return True
        if self._deadline is not None and time.monotonic() > self._deadline:
            return True
        return False

    # ------------------------------------------------------------------
    # the search
    # ------------------------------------------------------------------
    def _dfs(self, state: SystemState, cost: float, trail: List[Action]) -> None:
        if self._budget_exhausted():
            self._out_of_budget = True
            return
        self._stats.nodes += 1

        pending = self._pending(state)

        if cost + self._lower_bound(state, pending) >= self._best_cost:
            self._stats.pruned_bound += 1
            return

        # Eager exact reduction: superfluous replicas of objects with no
        # remaining targets can never be useful sources — delete now.
        pending_objs = {k for _, k in pending}
        forced = self._forced_deletions(state, pending_objs)
        for action in forced:
            state.apply(action)
            trail.append(action)

        try:
            if not pending:
                # All targets in place and every superfluous replica was
                # force-deleted above: this is a leaf landing on X_new.
                if cost < self._best_cost:
                    self._best_cost = cost
                    self._best_actions = list(trail)
                    self._stats.incumbent_updates += 1
                return

            key = state.placement().tobytes()
            seen = self._memo.get(key)
            if seen is not None and seen <= cost:
                self._stats.pruned_memo += 1
                return
            self._memo[key] = cost

            for action, action_cost in self._candidates(state, pending):
                state.apply(action)
                trail.append(action)
                self._dfs(state, cost + action_cost, trail)
                trail.pop()
                state.undo(action)
                if self._out_of_budget:
                    return
        finally:
            for action in reversed(forced):
                trail.pop()
                state.undo(action)

    def _forced_deletions(
        self, state: SystemState, pending_objs: set
    ) -> List[Delete]:
        inst = self._instance
        placement = state.placement()
        x_new = inst.x_new
        return [
            Delete(i, k)
            for k in range(inst.num_objects)
            if k not in pending_objs
            for i in np.flatnonzero(placement[:, k]).tolist()
            if not x_new[i, k]
        ]

    def _candidates(
        self, state: SystemState, pending: List[Tuple[int, int]]
    ) -> List[Tuple[Action, float]]:
        """Branching actions at a node, deletions first, cheap transfers next."""
        inst = self._instance
        placement = state.placement()
        x_new = inst.x_new
        pending_objs = {k for _, k in pending}
        out: List[Tuple[Action, float]] = []

        # Deletions that can matter: superfluous replicas of still-pending
        # objects, anywhere (room-making at targets, staged-copy cleanup
        # that may free room for further staging). Superfluous replicas
        # of *completed* objects were already force-deleted by the
        # caller, so this enumerates every deletable replica.
        for k in pending_objs:
            for i in np.flatnonzero(placement[:, k]).tolist():
                if not x_new[i, k]:
                    out.append((Delete(i, k), 0.0))

        # Transfers: one candidate per missing replica, from the nearest
        # current source only (symmetric-source canonicalization).
        transfers: List[Tuple[Action, float]] = []
        for i, k in pending:
            j = state.nearest(i, k)
            action = Transfer(i, k, j)
            if state.is_valid(action):
                transfers.append((action, inst.transfer_cost(i, k, j)))

        if self.allow_staging:
            for k in pending_objs:
                for i in range(inst.num_servers):
                    if x_new[i, k] or state.holds(i, k):
                        continue
                    j = state.nearest(i, k)
                    action = Transfer(i, k, j)
                    if state.is_valid(action):
                        transfers.append(
                            (action, inst.transfer_cost(i, k, j))
                        )

        transfers.sort(key=lambda pair: pair[1])
        out.extend(transfers)
        return out

    # ------------------------------------------------------------------
    def _publish_counters(self) -> None:
        registry = current_metrics()
        if registry is None:
            return
        stats = self._stats
        registry.counter("exact.nodes").inc(stats.nodes)
        registry.counter("exact.pruned_bound").inc(stats.pruned_bound)
        registry.counter("exact.pruned_memo").inc(stats.pruned_memo)
        registry.counter("exact.incumbent_updates").inc(
            stats.incumbent_updates
        )
        registry.counter("exact.solves").inc()


def solve_optimal(
    instance: RtspInstance,
    budget: Optional[SolverBudget] = None,
    allow_staging: bool = True,
) -> SolveResult:
    """Convenience wrapper around :class:`BranchAndBoundSolver`."""
    solver = BranchAndBoundSolver(
        budget=budget or SolverBudget(), allow_staging=allow_staging
    )
    return solver.solve(instance)


def decide_rtsp(
    instance: RtspInstance,
    budget: float,
    allow_staging: bool = True,
    max_nodes: int = 2_000_000,
) -> Optional[bool]:
    """RTSP-decision (paper §3.4): is there a valid schedule of
    implementation cost at most ``budget``?

    Read off :func:`solve_optimal`'s certificate: ``True`` when the best
    schedule found fits the budget, ``False`` when the certified lower
    bound exceeds it, ``None`` when the node budget ran out in between.
    """
    # Slack so a schedule that hits the budget exactly counts as "yes".
    cap = float(budget) + max(1e-9, abs(float(budget)) * 1e-12)
    result = solve_optimal(
        instance, SolverBudget(max_nodes=max_nodes), allow_staging
    )
    if result.cost <= cap:
        return True
    if result.lower_bound > cap:
        return False
    return None
