"""Exact reference solving and differential verification (``repro.exact``).

The correctness leg of the reproduction: RTSP-decision is NP-complete
(paper §3.4), so the heuristics the repository ships can only be judged
against a ground truth at small scale. This package provides that
ground truth and the machinery to hold every other layer to it:

* :mod:`repro.exact.solver` — a branch-and-bound optimal solver
  (:class:`BranchAndBoundSolver`) with memoized state hashing,
  dominance pruning, admissible lower bounds, and node/time budgets
  that distinguish :data:`PROVED_OPTIMAL` from :data:`BEST_FOUND`,
  and the RTSP-decision answer :func:`decide_rtsp` read off its
  certificate;
* :mod:`repro.exact.validate` — a strict schedule invariant checker
  (:func:`check_invariants`) implemented independently of
  :mod:`repro.model`, usable as a differential oracle against every
  builder, optimizer and repaired fault trace;
* :mod:`repro.exact.differential` — seeded instance families, the
  heuristics-vs-optimum harness, and the versioned golden corpus under
  ``tests/golden/exact/`` (refresh with
  ``python -m repro.tools golden --update``).
"""

from repro.exact.differential import (
    DEFAULT_FAMILIES,
    DEFAULT_GOLDEN_DIR,
    DEFAULT_PIPELINES,
    DEFAULT_SEEDS,
    GOLDEN_FORMAT,
    check_corpus,
    differential_payload,
    family_instances,
    gap_summary,
    update_corpus,
)
from repro.exact.solver import (
    BEST_FOUND,
    PROVED_OPTIMAL,
    BranchAndBoundSolver,
    SolveResult,
    SolveStats,
    SolverBudget,
    decide_rtsp,
    solve_optimal,
)
from repro.exact.validate import (
    InvariantReport,
    InvariantViolation,
    assert_invariants,
    check_invariants,
    resolve_validator,
)

__all__ = [
    # solver
    "PROVED_OPTIMAL",
    "BEST_FOUND",
    "BranchAndBoundSolver",
    "SolverBudget",
    "SolveResult",
    "SolveStats",
    "solve_optimal",
    "decide_rtsp",
    # validate
    "InvariantReport",
    "InvariantViolation",
    "assert_invariants",
    "check_invariants",
    "resolve_validator",
    # differential
    "GOLDEN_FORMAT",
    "DEFAULT_FAMILIES",
    "DEFAULT_PIPELINES",
    "DEFAULT_SEEDS",
    "DEFAULT_GOLDEN_DIR",
    "family_instances",
    "differential_payload",
    "gap_summary",
    "check_corpus",
    "update_corpus",
]
