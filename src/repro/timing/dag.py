"""Dependency DAGs over sequential schedules.

A valid sequential schedule implies a partial order: many actions can run
concurrently without violating any precondition. :func:`build_dependency_dag`
extracts a *conservative* DAG — every topological execution order of it is
a valid sequential schedule — as successor lists indexed by schedule
position. Every edge ``p -> q`` has ``p < q``, so the positions are
already a topological order. The edges:

* **source availability** — a transfer depends on the earlier transfer
  that created its source replica (if the source did not hold the object
  from the start);
* **source liveness** — a deletion ``D(j,k)`` depends on every earlier
  transfer sourced from ``(j,k)`` (the replica must outlive its reads)
  and on the transfer that created ``(j,k)`` if any;
* **space accounting** — a transfer into server ``i`` depends on the
  last earlier transfer into ``i`` and on every deletion at ``i`` since
  that transfer (all deletions at ``i`` if there was none).

An edge from *every* earlier space event at ``i`` adds no reachability:
the last transfer into ``i`` reaches, by induction, every space event at
``i`` before it. Nor does create/delete alternation need an edge: the
last deletion of ``(i,k)`` is a space event at ``i``, so it reaches any
later transfer into ``(i,k)``. An action is ready once its predecessors
finished, and every dropped predecessor finishes before a kept one can
start, so the event loop and critical path are unchanged. Space edges
serialise same-target *admission*, not network time, which is what makes
every linearisation valid without re-checking capacities.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.model.actions import Action, Delete, Transfer
from repro.model.instance import RtspInstance


def build_dependency_dag(
    actions: Sequence[Action], instance: RtspInstance
) -> List[List[int]]:
    """Build the conservative dependency DAG as successor lists."""
    succ: List[List[int]] = [[] for _ in actions]
    last_creation: Dict[Tuple[int, int], int] = {}  # (server, obj) -> pos
    readers: Dict[Tuple[int, int], List[int]] = {}  # transfers reading a cell
    last_arrival: Dict[int, int] = {}  # server -> last transfer into it
    deletions_since: Dict[int, List[int]] = {}  # server -> since that arrival

    for pos, action in enumerate(actions):
        if isinstance(action, Transfer):
            i, k, j = action.target, action.obj, action.source
            # source availability: created earlier, or held from X_old
            if j != instance.dummy:
                created = last_creation.get((j, k))
                if created is not None:
                    succ[created].append(pos)
                readers.setdefault((j, k), []).append(pos)
            # space accounting at the target
            arrived = last_arrival.get(i)
            if arrived is not None:
                succ[arrived].append(pos)
            for prior in deletions_since.pop(i, ()):
                succ[prior].append(pos)
            last_creation[(i, k)] = pos
            last_arrival[i] = pos
        elif isinstance(action, Delete):
            i, k = action.server, action.obj
            created = last_creation.get((i, k))
            if created is not None:
                succ[created].append(pos)
            for reader in readers.pop((i, k), ()):
                succ[reader].append(pos)
            deletions_since.setdefault(i, []).append(pos)
    return succ


def critical_path_length(
    dag: Sequence[Sequence[int]], durations: Sequence[float]
) -> float:
    """Longest duration-weighted path through the DAG.

    A lower bound on any execution's makespan, regardless of how many
    transfers can run concurrently.
    """
    longest = [0.0] * len(dag)
    for pos, successors in enumerate(dag):
        finish = longest[pos] + float(durations[pos])
        longest[pos] = finish
        for succ in successors:
            if finish > longest[succ]:
                longest[succ] = finish
    return max(longest, default=0.0)
