"""The immutable RTSP problem instance.

An :class:`RtspInstance` bundles everything §3 of the paper parameterises
the problem with: object sizes, server capacities, the extended cost
matrix (real servers plus the dummy server as the last index), and the two
replication schemes ``X_old`` / ``X_new``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.model.placement import (
    diff_counts,
    loads,
    outstanding_mask,
    placement_fits,
    superfluous_mask,
)
from repro.network.costmatrix import extend_with_dummy
from repro.util.errors import ConfigurationError, InfeasibleInstanceError
from repro.util.validation import (
    check_binary_matrix,
    check_nonnegative,
    check_positive,
)


@dataclass(frozen=True)
class RtspInstance:
    """Immutable RTSP instance.

    Attributes
    ----------
    sizes:
        ``N`` object sizes in abstract data units, strictly positive.
    capacities:
        ``M`` server storage capacities.
    costs:
        Extended ``(M+1) x (M+1)`` per-unit cost matrix; index ``M`` is the
        dummy server ``S_d`` (build with
        :func:`repro.network.costmatrix.extend_with_dummy`, or pass a plain
        ``M x M`` matrix to :meth:`create` which extends it for you).
    x_old, x_new:
        ``M x N`` 0/1 replication matrices (real servers only; the dummy
        implicitly replicates everything).
    """

    sizes: np.ndarray
    capacities: np.ndarray
    costs: np.ndarray
    x_old: np.ndarray
    x_new: np.ndarray
    #: Lazily-filled cache of derived read-only views (outstanding /
    #: superfluous masks). Excluded from equality/repr; safe on a frozen
    #: dataclass because the dict itself is mutated, never reassigned.
    _derived: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        sizes,
        capacities,
        costs,
        x_old,
        x_new,
        dummy_constant: float = 1.0,
        validate: bool = True,
    ) -> "RtspInstance":
        """Validate inputs and build an instance.

        ``costs`` may be a plain ``M x M`` matrix (it is extended with the
        dummy server using ``dummy_constant``) or an already-extended
        ``(M+1) x (M+1)`` matrix.
        """
        sizes = check_positive(sizes, "sizes")
        capacities = check_nonnegative(capacities, "capacities")
        for name, values in (("sizes", sizes), ("capacities", capacities)):
            # ``min`` of an array holding NaN is NaN, which passes both
            # checks above; the feasibility test would then call a
            # malformed instance infeasible.
            if np.isnan(values).any():
                raise ConfigurationError(f"{name} must not contain NaN")
        x_old = check_binary_matrix(x_old, "X_old")
        x_new = check_binary_matrix(x_new, "X_new")
        m, n = x_old.shape
        if x_new.shape != (m, n):
            raise ConfigurationError("X_old and X_new must have identical shapes")
        if sizes.shape[0] != n:
            raise ConfigurationError(f"expected {n} object sizes, got {sizes.shape[0]}")
        if capacities.shape[0] != m:
            raise ConfigurationError(
                f"expected {m} server capacities, got {capacities.shape[0]}"
            )
        costs = np.asarray(costs, dtype=np.float64)
        if costs.size and np.isnan(costs).any():
            # NaN compares false under every ``<``: the nearest-source
            # scans would silently skip such a link while an ``argmin``
            # selects it, and any cost total through it is NaN. Reject
            # at the boundary instead.
            raise ConfigurationError("cost matrix must not contain NaN")
        if costs.shape == (m, m):
            costs = extend_with_dummy(costs, a=dummy_constant)
        elif costs.shape != (m + 1, m + 1):
            raise ConfigurationError(
                f"cost matrix must be {m}x{m} or {m + 1}x{m + 1}, got {costs.shape}"
            )
        inst = cls(
            sizes=sizes,
            capacities=capacities,
            costs=costs,
            x_old=x_old,
            x_new=x_new,
        )
        if validate:
            inst.check_feasible()
        # Freeze array contents: the instance is shared across heuristics.
        for arr in (inst.sizes, inst.capacities, inst.costs, inst.x_old, inst.x_new):
            arr.setflags(write=False)
        return inst

    # ------------------------------------------------------------------
    # dimensions
    # ------------------------------------------------------------------
    @property
    def num_servers(self) -> int:
        """Number of real servers ``M`` (the dummy is not counted)."""
        return self.x_old.shape[0]

    @property
    def num_objects(self) -> int:
        """Number of objects ``N``."""
        return self.x_old.shape[1]

    @property
    def dummy(self) -> int:
        """Index of the dummy server in the extended cost matrix."""
        return self.num_servers

    @property
    def dummy_cost(self) -> float:
        """Per-unit cost of any dummy transfer."""
        return float(self.costs[self.dummy, 0]) if self.num_servers else 0.0

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def outstanding(self) -> np.ndarray:
        """0/1 mask of replicas to create (``X_new`` minus ``X_old``).

        The mask is computed once and cached as a read-only array (every
        builder asks for it, and at fleet scale recomputing it dominated
        setup time).
        """
        mask = self._derived.get("outstanding")
        if mask is None:
            mask = outstanding_mask(self.x_old, self.x_new)
            mask.setflags(write=False)
            self._derived["outstanding"] = mask
        return mask

    def superfluous(self) -> np.ndarray:
        """0/1 mask of replicas to delete (``X_old`` minus ``X_new``).

        Cached read-only, like :meth:`outstanding`.
        """
        mask = self._derived.get("superfluous")
        if mask is None:
            mask = superfluous_mask(self.x_old, self.x_new)
            mask.setflags(write=False)
            self._derived["superfluous"] = mask
        return mask

    def diff_counts(self):
        """``(num_outstanding, num_superfluous)``."""
        return diff_counts(self.x_old, self.x_new)

    def old_loads(self) -> np.ndarray:
        """Per-server storage used by ``X_old``."""
        return loads(self.x_old, self.sizes)

    def new_loads(self) -> np.ndarray:
        """Per-server storage used by ``X_new``."""
        return loads(self.x_new, self.sizes)

    def transfer_cost(self, target: int, obj: int, source: int) -> float:
        """Cost ``s(O_k) * l_ij`` of one transfer."""
        return float(self.sizes[obj] * self.costs[target, source])

    # ------------------------------------------------------------------
    # feasibility
    # ------------------------------------------------------------------
    def check_feasible(self) -> None:
        """Raise :class:`InfeasibleInstanceError` unless both schemes fit.

        With the dummy server, storage feasibility of ``X_old`` and
        ``X_new`` is the *only* requirement for a valid schedule to exist
        (paper §3.3: delete everything, then pull everything from S_d).
        """
        if not placement_fits(self.x_old, self.sizes, self.capacities):
            raise InfeasibleInstanceError("X_old violates storage capacities")
        if not placement_fits(self.x_new, self.sizes, self.capacities):
            raise InfeasibleInstanceError("X_new violates storage capacities")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        out, sup = self.diff_counts()
        return (
            f"RtspInstance(M={self.num_servers}, N={self.num_objects}, "
            f"outstanding={out}, superfluous={sup})"
        )
