"""Nearest-source scans: the paper's ``N(i, k, X)`` and ``N2(i, k, X)``.

Every cost-aware decision in the reproduction — GOLCF/GMC object
selection, eq. 4 eviction benefits, OP1 re-pointing — reduces to two
queries: given the live replicator set of ``O_k``, which replicator (or
the dummy server as fallback) is cheapest for ``S_i``, and which is
second-cheapest? At the paper's replica counts (2–10 holders) a plain
Python scan over the holder set answers each query; the functions below
are that scan, and :class:`repro.model.state.SystemState` calls them on
its own replicator sets.

Determinism contract, shared by every function here: ``server`` itself
is never a candidate, candidates are ordered by ``(cost, index)``, so
ties break toward the lowest real server index, and the dummy (the
highest index) loses every cost tie to a real server.
:func:`nearest_bruteforce` restates the contract independently over the
placement column and is the reference the property tests check against.
"""

from __future__ import annotations

from typing import Iterable, Set, Tuple

import numpy as np

from repro.model.instance import RtspInstance

__all__ = ["keep_benefit", "nearest", "nearest_bruteforce", "nearest_pair"]


def nearest(
    row: np.ndarray,
    dummy: int,
    holders: Iterable[int],
    server: int,
    exclude: Iterable[int] = (),
) -> int:
    """Cheapest source for ``server`` among ``holders`` minus ``exclude``.

    ``row`` is ``server``'s row of the dummy-extended cost matrix; the
    dummy is returned when no real candidate remains.
    """
    if exclude:
        banned = frozenset(exclude)
        holders = [j for j in holders if j not in banned]
    best = dummy
    best_cost = row[dummy]
    for j in holders:
        if j == server:
            continue
        c = row[j]
        if c < best_cost or (c == best_cost and j < best):
            best, best_cost = j, c
    return best


def nearest_pair(
    row: np.ndarray, dummy: int, holders: Iterable[int], server: int
) -> Tuple[int, int]:
    """``(N(i,k,X), N2(i,k,X))`` in one pass over ``holders``.

    The second entry degrades to the dummy when fewer than two real
    candidates exist, and both do when there is none.
    """
    c1 = c2 = row[dummy]
    i1 = i2 = dummy
    for j in holders:
        if j == server:
            continue
        c = row[j]
        if c < c1 or (c == c1 and j < i1):
            c2, i2 = c1, i1
            c1, i1 = c, j
        elif c < c2 or (c == c2 and j < i2):
            c2, i2 = c, j
    if i1 == dummy:
        return dummy, dummy
    return i1, i2


def keep_benefit(
    costs: np.ndarray,
    dummy: int,
    holders: Set[int],
    server: int,
    waiting: Iterable[int],
    size: float,
) -> float:
    """GOLCF deletion benefit ``B_ik`` (paper eq. 4).

    The cost every still-waiting target whose nearest source is
    ``server`` would additionally pay by falling back to its
    second-nearest source. Terms are accumulated in ``waiting`` order,
    each multiplied by ``size`` before it is added.
    """
    total = 0.0
    for t in waiting:
        row = costs[t]
        first, second = nearest_pair(row, dummy, holders, t)
        if first == server:
            total += size * float(row[second] - row[first])
    return total


def nearest_bruteforce(
    instance: RtspInstance,
    holds: np.ndarray,
    server: int,
    obj: int,
    exclude: Iterable[int] = (),
) -> int:
    """Reference ``N(i,k,X)``: the ``(cost, index)`` minimum over the
    placement column, with the dummy as the always-present candidate."""
    banned = set(exclude)
    banned.add(server)
    row = instance.costs[server]
    candidates = [
        int(j) for j in np.flatnonzero(holds[:, obj]) if int(j) not in banned
    ]
    candidates.append(instance.dummy)
    return min(candidates, key=lambda j: (float(row[j]), j))
