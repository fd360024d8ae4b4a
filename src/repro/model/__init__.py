"""Core RTSP data model.

* :mod:`repro.model.actions` — :class:`Transfer` / :class:`Delete` actions,
* :mod:`repro.model.instance` — the immutable problem instance
  ``(sizes, capacities, costs, X_old, X_new)``,
* :mod:`repro.model.placement` — replication-matrix helpers
  (loads, outstanding/superfluous masks, feasibility),
* :mod:`repro.model.state` — the mutable simulation state machine with
  nearest-replicator queries,
* :mod:`repro.model.nearest` — the nearest / second-nearest source
  scans those queries run on, plus the brute-force reference,
* :mod:`repro.model.schedule` — action sequences, replay, validation and
  cost accounting,
* :mod:`repro.model.residual` — residual-instance extraction for
  re-planning a transition from a mid-flight state.
"""

from repro.model.actions import Action, Delete, Transfer, is_transfer, is_delete
from repro.model.instance import RtspInstance
from repro.model.placement import (
    loads,
    outstanding_mask,
    superfluous_mask,
    overlap_fraction,
    placement_fits,
    replica_counts,
)
from repro.model.nearest import nearest_bruteforce
from repro.model.residual import is_residual_trivial, residual_instance
from repro.model.state import SystemState
from repro.model.schedule import Schedule, ValidationReport

__all__ = [
    "Action",
    "Delete",
    "Transfer",
    "is_transfer",
    "is_delete",
    "RtspInstance",
    "loads",
    "outstanding_mask",
    "superfluous_mask",
    "overlap_fraction",
    "placement_fits",
    "replica_counts",
    "nearest_bruteforce",
    "is_residual_trivial",
    "residual_instance",
    "SystemState",
    "Schedule",
    "ValidationReport",
]
