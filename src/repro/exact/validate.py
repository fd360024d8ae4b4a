"""Strict schedule invariant checking, independent of :mod:`repro.model`.

:func:`check_invariants` re-derives everything a valid schedule must
satisfy from the raw instance arrays — no
:class:`~repro.model.state.SystemState`, no shared nearest-source scan —
so it can serve as a *differential oracle* against the model layer: a bug
in either implementation shows up as a disagreement (see the hypothesis
property tests in ``tests/properties/test_exact_properties.py``).

The action replay runs on plain Python floats and per-object holder
sets. numpy touches only the raw instance arrays, in two places: the
``X_old`` seed reads its non-zero cells with ``np.nonzero``, and the
landing check is one array comparison of the replayed holders against
``X_new``. Both cost time in the non-zero cells and the actions, not in
all ``M x N`` cells.

Checked invariants:

* **step validity** — every transfer has a live source, a target that
  does not yet replicate the object, and never targets the dummy; every
  deletion removes a replica that exists and never touches the dummy;
* **prefix capacity** — after *every* action, each server's load is
  within its capacity (not just at the endpoints);
* **exact landing** — the final replication matrix equals ``X_new``
  entry-for-entry;
* **dummy accounting** — the number of transfers sourced at the dummy
  server is recomputed from scratch;
* **independent cost** — the implementation cost is re-accumulated from
  the raw size/cost arrays, without calling ``Schedule.cost``.

The checker never raises on an invalid schedule (use
:func:`assert_invariants` for that); it returns an
:class:`InvariantReport` whose ``violations`` list the broken rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.model.actions import Action, Delete, Transfer
from repro.model.instance import RtspInstance
from repro.model.schedule import Schedule
from repro.util.errors import ConfigurationError, InvalidScheduleError

__all__ = [
    "CAPACITY_EPS",
    "InvariantViolation",
    "InvariantReport",
    "check_invariants",
    "assert_invariants",
    "resolve_validator",
]

#: Same numerical slack the model layer grants for storage comparisons.
CAPACITY_EPS = 1e-9

#: Stop collecting after this many violations (diagnostics, not a dump).
_MAX_VIOLATIONS = 25


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant.

    ``position`` is the 0-based schedule index of the offending action,
    or ``None`` for end-state (landing) violations. ``rule`` is a stable
    machine-readable identifier; ``message`` is for humans.
    """

    position: Optional[int]
    rule: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - debug aid
        where = "end state" if self.position is None else f"action {self.position}"
        return f"[{self.rule}] {where}: {self.message}"


@dataclass(frozen=True)
class InvariantReport:
    """Outcome of :func:`check_invariants`.

    ``cost`` and ``dummy_transfers`` are recomputed independently of the
    model layer and cover the *entire* schedule even when invalid (every
    action is still charged), so differential comparisons stay
    meaningful. ``peak_load`` is the maximum per-server load observed at
    any prefix, in server order — useful when diagnosing capacity
    violations.
    """

    ok: bool
    violations: Tuple[InvariantViolation, ...]
    cost: float
    dummy_transfers: int
    num_actions: int
    peak_load: Tuple[float, ...]

    @property
    def first(self) -> Optional[InvariantViolation]:
        """The first violation, or ``None`` when the schedule is valid."""
        return self.violations[0] if self.violations else None

    def summary(self) -> str:
        """One-line human-readable verdict."""
        if self.ok:
            return (
                f"valid: {self.num_actions} actions, cost={self.cost:.6g}, "
                f"{self.dummy_transfers} dummy"
            )
        head = self.violations[0]
        more = len(self.violations) - 1
        tail = f" (+{more} more)" if more else ""
        return f"INVALID: {head}{tail}"


def check_invariants(
    instance: RtspInstance, schedule: Iterable[Action]
) -> InvariantReport:
    """Validate ``schedule`` against ``instance`` from first principles.

    Accepts any iterable of actions (a :class:`~repro.model.schedule.Schedule`,
    a list, an applied fault trace); never raises on invalid input.
    """
    m, n = instance.num_servers, instance.num_objects
    dummy = instance.dummy
    sizes = instance.sizes.tolist()
    capacities = instance.capacities.tolist()
    costs = instance.costs.tolist()

    holders: List[set] = [set() for _ in range(n)]
    load = [0.0] * m
    # np.nonzero walks X_old row-major (server, then object), so each
    # server's load sums its sizes in object order; float rounding, and
    # so load and peak_load, depend on that order.
    old_servers, old_objects = np.nonzero(instance.x_old)
    for i, k in zip(old_servers.tolist(), old_objects.tolist()):
        holders[k].add(i)
        load[i] += sizes[k]
    peak = list(load)

    violations: List[InvariantViolation] = []

    def flag(position: Optional[int], rule: str, message: str) -> None:
        if len(violations) < _MAX_VIOLATIONS:
            violations.append(InvariantViolation(position, rule, message))

    cost = 0.0
    dummies = 0
    num_actions = 0
    for pos, action in enumerate(schedule):
        num_actions += 1
        if isinstance(action, Transfer):
            i, k, j = action.target, action.obj, action.source
            in_range = 0 <= i <= dummy and 0 <= j <= dummy and 0 <= k < n
            if not in_range:
                flag(pos, "index-range", f"{action}: index out of range")
                continue
            # Charge the cost regardless of validity so differential
            # comparisons of invalid schedules stay meaningful.
            cost += sizes[k] * costs[i][j]
            if j == dummy:
                dummies += 1
            if i == dummy:
                flag(pos, "dummy-target", f"{action}: transfer onto the dummy")
                continue
            if i == j:
                flag(pos, "self-transfer", f"{action}: source equals target")
                continue
            if j != dummy and j not in holders[k]:
                flag(pos, "source-missing",
                     f"{action}: S_{j} does not replicate O_{k}")
                continue
            if i in holders[k]:
                flag(pos, "target-present",
                     f"{action}: S_{i} already replicates O_{k}")
                continue
            if load[i] + sizes[k] > capacities[i] + CAPACITY_EPS:
                flag(
                    pos,
                    "capacity",
                    f"{action}: S_{i} would hold {load[i] + sizes[k]:.6g} "
                    f"of {capacities[i]:.6g}",
                )
                continue
            holders[k].add(i)
            load[i] += sizes[k]
            peak[i] = max(peak[i], load[i])
        elif isinstance(action, Delete):
            i, k = action.server, action.obj
            if not (0 <= i <= dummy and 0 <= k < n):
                flag(pos, "index-range", f"{action}: index out of range")
                continue
            if i == dummy:
                flag(pos, "dummy-delete", f"{action}: delete at the dummy")
                continue
            if i not in holders[k]:
                flag(pos, "replica-missing",
                     f"{action}: S_{i} does not replicate O_{k}")
                continue
            holders[k].discard(i)
            load[i] -= sizes[k]
        else:
            flag(pos, "unknown-action",
                 f"unknown action type {type(action).__name__}")

    if not violations:
        # Landing: only meaningful once every step was valid (otherwise
        # the simulated state already diverged).
        final = np.zeros((m, n), dtype=bool)
        cells = [(i, k) for k, held in enumerate(holders) for i in held]
        if cells:
            final[tuple(zip(*cells))] = True
        # Transposed, so the mismatches come object-major, then by server.
        mismatch_objects, mismatch_servers = np.nonzero(
            (final != (instance.x_new != 0)).T
        )
        if mismatch_objects.size:
            flag(
                None,
                "landing",
                f"final placement differs from X_new at "
                f"{mismatch_objects.size} entries (first: server "
                f"{int(mismatch_servers[0])}, object {int(mismatch_objects[0])})",
            )

    return InvariantReport(
        ok=not violations,
        violations=tuple(violations),
        cost=cost,
        dummy_transfers=dummies,
        num_actions=num_actions,
        peak_load=tuple(peak),
    )


def assert_invariants(
    instance: RtspInstance, schedule: Iterable[Action], context: str = ""
) -> InvariantReport:
    """:func:`check_invariants`, raising :class:`InvalidScheduleError`.

    Returns the (valid) report on success so callers can reuse the
    recomputed cost. ``context`` prefixes the error message (builder or
    stage name, repair round, …).
    """
    report = check_invariants(instance, schedule)
    if not report.ok:
        head = report.violations[0]
        prefix = f"{context}: " if context else ""
        raise InvalidScheduleError(
            f"{prefix}invariant violation {head}", position=head.position
        )
    return report


#: What ``validate=`` hooks accept: nothing, a named mode, or a callable
#: ``(instance, schedule) -> None`` that raises on invalid schedules.
ValidateSpec = Union[
    None, bool, str, Callable[[RtspInstance, Schedule], None]
]


def resolve_validator(
    spec: ValidateSpec,
) -> Optional[Callable[[RtspInstance, Schedule], None]]:
    """Normalise a ``validate=`` argument into a checking callable.

    * ``None`` / ``False`` — no validation (returns ``None``);
    * ``"basic"`` / ``True`` — replay through the model layer
      (``Schedule.require_valid``);
    * ``"strict"`` — this module's independent invariant checker;
    * a callable — used as-is.
    """
    if spec is None or spec is False:
        return None
    if spec is True or spec == "basic":
        return lambda instance, schedule: schedule.require_valid(instance)
    if spec == "strict":
        def _strict(instance: RtspInstance, schedule: Schedule) -> None:
            assert_invariants(instance, schedule)

        return _strict
    if callable(spec):
        return spec
    raise ConfigurationError(
        f"validate must be None, 'basic', 'strict' or a callable, got {spec!r}"
    )
