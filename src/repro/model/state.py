"""Mutable simulation state for stepwise schedule execution.

:class:`SystemState` tracks the current replication matrix ``X^u``, free
storage per server, and per-object replicator sets, and implements the
action semantics of paper §3.2:

* ``T_ikj`` is valid iff ``S_j`` replicates ``O_k``, ``S_i`` does not, and
  ``S_i`` has free storage for a copy;
* ``D_ik`` is valid iff ``S_i`` replicates ``O_k``.

The dummy server (index ``instance.dummy``) permanently replicates every
object, has unbounded storage, and can never be a transfer target or a
deletion site.

Storage layout. The builders ask the state a handful of scalar questions
per action (does ``S_i`` hold ``O_k``, how much room is left at ``S_i``,
what does a link cost), and a numpy scalar read or write costs several
times a Python list or buffer access. The state therefore keeps its
mutable data in Python-native buffers and publishes numpy views of them:

* the placement cells live in a ``bytearray``, row-major ``M x N``;
  ``_holds`` is an ``np.frombuffer`` view of the same bytes, so
  :meth:`placement` and :meth:`matches` stay vectorised;
* free space lives in an ``array('d')``; ``_free`` and every
  :meth:`free_array` view alias it, so a view taken once (AR's masked
  "which transfers fit" comparison, ``ActionLog.free``) tracks every
  later mutation;
* the exact free-space ledger (see ``__init__``) holds Python ints, or
  Python floats for the compensated fractional ledger;
* each cost row is copied into an ``array('d')`` on first use
  (:attr:`cost_rows`).

:meth:`copy` duplicates every mutable buffer, so a copy shares no
mutable storage with its original; only the immutable instance and its
cost-row cache are shared.
"""

from __future__ import annotations

from array import array
from typing import (
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.model.actions import Action, Delete, Transfer
from repro.model.instance import RtspInstance
from repro.model.nearest import nearest as _nearest
from repro.model.nearest import nearest_pair as _nearest_pair
from repro.util.errors import InvalidActionError

#: Numerical slack for storage comparisons (sizes are usually integers,
#: but generators may produce floats).
CAPACITY_EPS = 1e-9


class _CostRows(dict):
    """``server -> costs[server]`` as an ``array('d')``, copied on first
    lookup.

    An ``array('d')`` row is one memcpy to build and reads a float
    nearly as fast as a list does. A list row costs a float object per
    entry: on a 960-server instance, converting the rows to lists took
    about a tenth of a GOLCF build.
    """

    __slots__ = ("_costs",)

    def __init__(self, costs: np.ndarray) -> None:
        super().__init__()
        self._costs = costs

    def __missing__(self, server: int) -> array:
        row = self[server] = array("d", self._costs[server].tobytes())
        return row


class SystemState:
    """Current replication state of an instance, supporting apply/undo.

    Parameters
    ----------
    instance:
        The problem instance providing sizes, capacities and costs.
    placement:
        Starting ``M x N`` replication matrix; defaults to ``X_old``.
    """

    def __init__(
        self, instance: RtspInstance, placement: Optional[np.ndarray] = None
    ) -> None:
        self.instance = instance
        start = instance.x_old if placement is None else placement
        m, n = instance.num_servers, instance.num_objects
        self._dummy = instance.dummy
        self._n = n
        if start.shape != (m, n):
            raise ValueError(f"placement must be {m}x{n}, got {start.shape}")
        self._cells = bytearray(np.ascontiguousarray(start, dtype=np.int8).tobytes())
        self._holds = np.frombuffer(self._cells, dtype=np.int8).reshape(m, n)
        free = instance.capacities - (self._holds.astype(np.float64) @ instance.sizes)
        if free.min(initial=0.0) < -CAPACITY_EPS:
            raise InvalidActionError("starting placement violates capacities")
        # Exact free-space ledger. Accumulating float deltas drifts past
        # CAPACITY_EPS over enough evict/deliver cycles, so the published
        # free space is never float-accumulated directly:
        #
        # * integral sizes+capacities (the common case — the paper's
        #   workloads and the scaling benchmarks use whole data units):
        #   a Python-int ledger is updated and mirrored into the free
        #   buffer, so every published value is exact;
        # * fractional inputs: Neumaier compensated summation over the
        #   deltas, published as ``raw + compensation`` after every
        #   mutation, keeping the error at a single rounding instead of
        #   a random walk.
        sizes = instance.sizes
        exact = bool(
            np.all(sizes == np.floor(sizes))
            and np.all(instance.capacities == np.floor(instance.capacities))
            and (sizes.size == 0 or float(sizes.max()) < 2**53)
            and (
                instance.capacities.size == 0
                or float(instance.capacities.max()) < 2**53
            )
        )
        if exact:
            self._sizes_int: Optional[List[int]] = [int(v) for v in sizes.tolist()]
            self._free_int: Optional[List[int]] = (
                np.rint(free).astype(np.int64).tolist()
            )
            self._free_buf = array("d", self._free_int)
            self._free_comp: Optional[List[float]] = None
            self._free_raw: Optional[List[float]] = None
        else:
            self._sizes_int = None
            self._free_int = None
            self._free_buf = array("d", free.tolist())
            self._free_comp = [0.0] * m
            self._free_raw = free.tolist()
        self._free = np.frombuffer(self._free_buf, dtype=np.float64)
        self._sizes: List[float] = sizes.tolist()
        self._rows = _CostRows(instance.costs)
        # One nonzero over the placement, row-major: each object's
        # holders arrive in ascending server order, as a per-column
        # flatnonzero would give them.
        self._replicators: List[Set[int]] = [set() for _ in range(n)]
        servers, objs = np.nonzero(self._holds)
        for i, k in zip(servers.tolist(), objs.tolist()):
            self._replicators[k].add(i)
        #: Per-object mutation counters, bumped on every replicator-set
        #: change; consumers compare stamps to skip recomputing values
        #: derived from an untouched object.
        self.versions: List[int] = [0] * n

    # ------------------------------------------------------------------
    # free-space ledger (exact; see __init__)
    # ------------------------------------------------------------------
    def _free_add(self, server: int, obj: int, sign: int) -> None:
        """Adjust ``server``'s free space by ``sign * sizes[obj]`` exactly."""
        ints = self._free_int
        if ints is not None:
            value = ints[server] + sign * self._sizes_int[obj]
            ints[server] = value
            self._free_buf[server] = value
            return
        delta = sign * self._sizes[obj]
        raw = self._free_raw[server]
        total = raw + delta
        if abs(raw) >= abs(delta):
            self._free_comp[server] += (raw - total) + delta
        else:
            self._free_comp[server] += (delta - total) + raw
        self._free_raw[server] = total
        self._free_buf[server] = total + self._free_comp[server]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def dummy(self) -> int:
        """Index of the dummy server (cached; queried on every action)."""
        return self._dummy

    def holds(self, server: int, obj: int) -> bool:
        """Whether ``server`` currently replicates ``obj``.

        The dummy server holds everything by definition.
        """
        if server == self._dummy:
            return True
        if not 0 <= obj < self._n:
            raise IndexError(f"object index {obj} out of range [0, {self._n})")
        return self._cells[server * self._n + obj] == 1

    def free_space(self, server: int) -> float:
        """Remaining storage at ``server`` (``inf`` for the dummy)."""
        if server == self._dummy:
            return float("inf")
        return self._free_buf[server]

    def free_array(self) -> np.ndarray:
        """Read-only live view of per-server free storage (real servers
        only); it tracks every later mutation of this state."""
        view = self._free.view()
        view.setflags(write=False)
        return view

    @property
    def cost_rows(self) -> Mapping[int, Sequence[float]]:
        """``server -> server``'s row of the dummy-extended cost matrix,
        each row converted on first lookup (treat as read-only)."""
        return self._rows

    def replicators(self, obj: int) -> FrozenSet[int]:
        """Real servers currently replicating ``obj`` (dummy excluded)."""
        return frozenset(self._replicators[obj])

    def num_replicas(self, obj: int) -> int:
        """Number of real replicas of ``obj``."""
        return len(self._replicators[obj])

    def placement(self) -> np.ndarray:
        """Copy of the current ``M x N`` replication matrix."""
        return self._holds.copy()

    def matches(self, x: np.ndarray) -> bool:
        """Whether the current placement equals ``x`` exactly."""
        return bool(np.array_equal(self._holds, x))

    # ------------------------------------------------------------------
    # nearest-replicator queries (paper's N(i,k,X) and N2(i,k,X))
    # ------------------------------------------------------------------
    def holders(self, obj: int) -> Set[int]:
        """Live replicator set of ``obj`` (real servers; treat as read-only)."""
        return self._replicators[obj]

    def nearest(
        self, server: int, obj: int, exclude: Iterable[int] = ()
    ) -> int:
        """Cheapest current source of ``obj`` for ``server``.

        Returns the dummy index when no (non-excluded) real replicator
        exists. ``server`` itself is never a candidate. Ties break toward
        the lowest server index for determinism.
        """
        return _nearest(
            self._rows[server],
            self._dummy,
            self._replicators[obj],
            server,
            exclude,
        )

    def nearest_pair(self, server: int, obj: int) -> Tuple[int, int]:
        """``(N(i,k,X), N2(i,k,X))``: nearest and second-nearest sources.

        Either entry degrades to the dummy index when fewer than one / two
        real replicators exist.
        """
        return _nearest_pair(
            self._rows[server],
            self._dummy,
            self._replicators[obj],
            server,
        )

    def nearest_cost(self, server: int, obj: int) -> float:
        """Per-unit cost to the nearest current source of ``obj``."""
        return self._rows[server][self.nearest(server, obj)]

    # ------------------------------------------------------------------
    # action semantics
    # ------------------------------------------------------------------
    def _out_of_range(self, action: Action) -> Optional[str]:
        """Range-check the action's indices (servers may include the dummy)."""
        if isinstance(action, Transfer):
            servers, obj = (action.target, action.source), action.obj
        else:
            servers, obj = (action.server,), action.obj
        for s in servers:
            if not 0 <= s <= self.dummy:
                return f"server index {s} out of range [0, {self.dummy}]"
        if not 0 <= obj < self.instance.num_objects:
            return (
                f"object index {obj} out of range "
                f"[0, {self.instance.num_objects})"
            )
        return None

    def explain_invalid(self, action: Action) -> Optional[str]:
        """Reason ``action`` is invalid in this state, or ``None`` if valid."""
        bounds = self._out_of_range(action)
        if bounds is not None:
            return bounds
        if isinstance(action, Transfer):
            i, k, j = action.target, action.obj, action.source
            if i == self.dummy:
                return "cannot transfer onto the dummy server"
            if i == j:
                return "transfer source equals target"
            if not self.holds(j, k):
                return f"source S_{j} does not replicate O_{k}"
            if self.holds(i, k):
                return f"target S_{i} already replicates O_{k}"
            free, size = self._free_buf[i], self._sizes[k]
            if free + CAPACITY_EPS < size:
                return (
                    f"target S_{i} lacks space for O_{k} "
                    f"(free={free:.6g}, size={size:.6g})"
                )
            return None
        if isinstance(action, Delete):
            i, k = action.server, action.obj
            if i == self.dummy:
                return "cannot delete from the dummy server"
            if not self.holds(i, k):
                return f"S_{i} does not replicate O_{k}"
            return None
        return f"unknown action type {type(action).__name__}"

    def is_valid(self, action: Action) -> bool:
        """Whether ``action`` may be applied in the current state."""
        return self.explain_invalid(action) is None

    def apply(self, action: Action, position: Optional[int] = None) -> None:
        """Apply ``action``, mutating the state.

        Raises :class:`InvalidActionError` (with the offending action and
        optional schedule position attached) if the action is invalid.
        """
        reason = self.explain_invalid(action)
        if reason is not None:
            raise InvalidActionError(
                f"invalid action {action}: {reason}", action=action, position=position
            )
        if isinstance(action, Transfer):
            self.apply_transfer_trusted(action.target, action.obj)
        else:
            self.apply_delete_trusted(action.server, action.obj)

    def apply_transfer_trusted(self, target: int, obj: int) -> None:
        """Record a transfer of ``obj`` onto ``target`` without validation.

        The builders' fast path
        (:class:`repro.core.builders.common.ActionLog`): no validity
        check runs, so the caller must guarantee the paper's transfer
        preconditions (a live source exists, ``target`` lacks the replica
        and has room). The state mutation — including the exact
        free-space ledger and the version counter — is identical to
        :meth:`apply`.
        """
        self._cells[target * self._n + obj] = 1
        self._free_add(target, obj, -1)
        self._replicators[obj].add(target)
        self.versions[obj] += 1

    def apply_delete_trusted(self, server: int, obj: int) -> None:
        """Record a deletion at ``server`` without validation.

        Trusted counterpart of :meth:`apply_transfer_trusted`; the caller
        must guarantee ``server`` currently replicates ``obj``.
        """
        self._cells[server * self._n + obj] = 0
        self._free_add(server, obj, 1)
        self._replicators[obj].discard(server)
        self.versions[obj] += 1

    def _check_undoable(self, action: Action, mutated_server: int) -> None:
        """Shared bounds/dummy guard for both ``undo`` branches.

        ``apply`` funnels every action through :meth:`explain_invalid`;
        ``undo`` historically did not, so out-of-range indices could
        corrupt state through numpy wrap-around (negative indices) or
        raise a bare ``IndexError``, and the dummy server's row — which
        does not exist in the placement matrix — could be addressed.
        """
        bounds = self._out_of_range(action)
        if bounds is not None:
            raise InvalidActionError(f"cannot undo {action}: {bounds}")
        if mutated_server == self.dummy:
            raise InvalidActionError(
                f"cannot undo {action}: the dummy server's holdings are "
                "immutable"
            )

    def undo(self, action: Action) -> None:
        """Invert a previously applied ``action``.

        Only correct when ``action`` was the most recent mutation (or when
        the caller otherwise guarantees the inverse is consistent); used by
        the exact solver's depth-first search.
        """
        if isinstance(action, Transfer):
            i, k = action.target, action.obj
            self._check_undoable(action, i)
            if not self.holds(i, k):
                raise InvalidActionError(f"cannot undo {action}: replica absent")
            self.apply_delete_trusted(i, k)
        elif isinstance(action, Delete):
            i, k = action.server, action.obj
            self._check_undoable(action, i)
            if self.holds(i, k):
                raise InvalidActionError(f"cannot undo {action}: replica present")
            if self._free_buf[i] + CAPACITY_EPS < self._sizes[k]:
                raise InvalidActionError(f"cannot undo {action}: no space left")
            self.apply_transfer_trusted(i, k)
        else:
            raise InvalidActionError(f"unknown action type {type(action).__name__}")

    # ------------------------------------------------------------------
    # fault semantics
    # ------------------------------------------------------------------
    def crash_server(self, server: int) -> List[Delete]:
        """Lose every replica held at ``server`` (a crash with data loss).

        Storage is freed (the machine rejoins empty), so the server can
        still receive replicas afterwards. Returns the synthetic
        :class:`Delete` actions describing the loss, in ascending object
        order — replaying them against the pre-crash state reproduces the
        post-crash state exactly, which is what lets failure traces
        re-validate as ordinary action sequences.
        """
        if not 0 <= server < self.instance.num_servers:
            raise InvalidActionError(
                f"cannot crash server {server}: index out of range "
                f"[0, {self.instance.num_servers}) (the dummy never crashes)"
            )
        lost = [
            Delete(server, int(k))
            for k in np.flatnonzero(self._holds[server]).tolist()
        ]
        for action in lost:
            self.apply(action)
        return lost

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def copy(self) -> "SystemState":
        """Deep copy: every mutable buffer is duplicated (the immutable
        instance and the cost-row cache are shared)."""
        dup = object.__new__(SystemState)
        dup.instance = self.instance
        dup._dummy = self._dummy
        dup._n = self._n
        dup._cells = bytearray(self._cells)
        dup._holds = np.frombuffer(dup._cells, dtype=np.int8).reshape(
            self._holds.shape
        )
        dup._free_buf = array("d", self._free_buf)
        dup._free = np.frombuffer(dup._free_buf, dtype=np.float64)
        dup._sizes_int = self._sizes_int
        dup._sizes = self._sizes
        dup._rows = self._rows
        if self._free_int is not None:
            dup._free_int = list(self._free_int)
            dup._free_comp = dup._free_raw = None
        else:
            dup._free_int = None
            dup._free_comp = list(self._free_comp)
            dup._free_raw = list(self._free_raw)
        dup._replicators = [set(s) for s in self._replicators]
        dup.versions = list(self.versions)
        return dup

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SystemState(replicas={int(self._holds.sum())}, "
            f"free_min={float(self._free.min(initial=np.inf)):.4g})"
        )
