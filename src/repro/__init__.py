"""repro — the Replica Transfer Scheduling Problem (RTSP) library.

A faithful, production-quality reproduction of *"Implementing Replica
Placements: Feasibility and Cost Minimization"* (Loukopoulos, Tziritas,
Lampsas, Lalis — IPPS 2007), including every substrate the paper's
evaluation depends on.

Quickstart
----------
>>> from repro import paper_instance, build_pipeline
>>> instance = paper_instance(replicas=2, num_objects=100,
...                           num_servers=20, rng=0)
>>> schedule = build_pipeline("GOLCF+H1+H2+OP1").run(instance, rng=0)
>>> report = schedule.validate(instance)
>>> assert report.ok

Package map
-----------
* :mod:`repro.model` — instances, actions, schedules, simulation state
* :mod:`repro.network` — topologies and cost matrices (BRITE-like BA tree)
* :mod:`repro.core` — the paper's heuristics (builders + optimizers)
* :mod:`repro.analysis` — transfer graphs, feasibility, bounds, metrics
* :mod:`repro.workloads` — experiment workloads and the video scenario
* :mod:`repro.placement` — greedy replica placement (the upstream producer
  of ``X_new``)
* :mod:`repro.npc` — the Knapsack→RTSP reduction of §3.4
* :mod:`repro.experiments` — the figure-reproduction harness
* :mod:`repro.robust` — fault injection and online schedule repair
* :mod:`repro.exact` — proved-optimal solving, the strict invariant
  oracle, and the golden differential corpus
"""

from repro.model import (
    Action,
    Delete,
    RtspInstance,
    Schedule,
    SystemState,
    Transfer,
    ValidationReport,
)
from repro.core import (
    AllRandom,
    GreedyObjectLowestCostFirst,
    GroupedServerDeletionsFirst,
    H1MoveDummyTransfers,
    H2CreateSuperfluousReplicas,
    OP1ReorderTransfers,
    Pipeline,
    RandomDeletionsFirst,
    available_builders,
    available_optimizers,
    build_pipeline,
    get_builder,
    get_optimizer,
)
from repro.analysis import (
    analyze_feasibility,
    count_dummy_transfers,
    implementation_cost,
    schedule_stats,
)
from repro.network import (
    Topology,
    barabasi_albert_topology,
    brite_paper_topology,
    cost_matrix_from_topology,
    extend_with_dummy,
)
from repro.workloads import paper_instance, regular_placement_pair
from repro.exact import (
    BEST_FOUND,
    PROVED_OPTIMAL,
    BranchAndBoundSolver,
    SolveResult,
    SolverBudget,
    assert_invariants,
    check_invariants,
    decide_rtsp,
    solve_optimal,
)
from repro.robust import (
    FaultPlan,
    RepairEngine,
    RepairPolicy,
    RepairReport,
    execute_with_repair,
)
from repro.util.errors import (
    CapacityError,
    ConfigurationError,
    InfeasibleInstanceError,
    InvalidActionError,
    InvalidScheduleError,
    RepairExhaustedError,
    RtspError,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # model
    "Action",
    "Delete",
    "Transfer",
    "RtspInstance",
    "Schedule",
    "SystemState",
    "ValidationReport",
    # core
    "AllRandom",
    "GreedyObjectLowestCostFirst",
    "GroupedServerDeletionsFirst",
    "H1MoveDummyTransfers",
    "H2CreateSuperfluousReplicas",
    "OP1ReorderTransfers",
    "Pipeline",
    "RandomDeletionsFirst",
    "available_builders",
    "available_optimizers",
    "build_pipeline",
    "get_builder",
    "get_optimizer",
    # analysis
    "analyze_feasibility",
    "count_dummy_transfers",
    "implementation_cost",
    "schedule_stats",
    # network
    "Topology",
    "barabasi_albert_topology",
    "brite_paper_topology",
    "cost_matrix_from_topology",
    "extend_with_dummy",
    # workloads
    "paper_instance",
    "regular_placement_pair",
    # exact
    "BEST_FOUND",
    "PROVED_OPTIMAL",
    "BranchAndBoundSolver",
    "SolveResult",
    "SolverBudget",
    "assert_invariants",
    "check_invariants",
    "decide_rtsp",
    "solve_optimal",
    # robust
    "FaultPlan",
    "RepairEngine",
    "RepairPolicy",
    "RepairReport",
    "execute_with_repair",
    # errors
    "RtspError",
    "ConfigurationError",
    "InvalidActionError",
    "InvalidScheduleError",
    "InfeasibleInstanceError",
    "RepairExhaustedError",
    "CapacityError",
]
