"""Pinned outputs of the discrete-event loop behind ``repro.timing``.

``simulate_parallel`` and ``simulate_with_faults`` share one
list-scheduling loop. These digests pin what both functions return, and
the executor metrics they record, byte for byte: every float is hashed
through ``float.hex``. A mismatch is a behaviour change; the expected
values are never edited to make a test pass.
"""

import hashlib
import json

import pytest

from repro.core import build_pipeline
from repro.model.actions import Transfer
from repro.model.state import SystemState
from repro.obs import MetricsRegistry, use_metrics
from repro.timing.bandwidth import bandwidths_from_costs, uniform_bandwidths
from repro.timing.executor import sequential_makespan, simulate_parallel
from repro.timing.faulted import simulate_with_faults
from repro.workloads.regular import paper_instance

INSTANCE_SEEDS = (0, 1, 2, 3)
SLOTS = ((1, 1), (2, 1), (1, 3), (4, 4))
BANDWIDTHS = {
    "uniform": lambda inst: uniform_bandwidths(inst.num_servers, rate=0.5),
    "costs": lambda inst: bandwidths_from_costs(inst.costs),
}


def _instance(seed):
    return paper_instance(replicas=2, num_servers=12, num_objects=40, rng=seed)


def _digest(rows):
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _metrics(registry):
    """Counters and histograms in registration order, floats as hex."""
    snap = registry.snapshot()
    return [
        [[name, float(value).hex()] for name, value in snap["counters"].items()],
        [
            [name, h["count"], float(h["total"]).hex(), h["buckets"]]
            for name, h in snap["histograms"].items()
        ],
    ]


def _parallel_rows(schedule, instance, bandwidths, out_slots, in_slots):
    registry = MetricsRegistry()
    with use_metrics(registry):
        result = simulate_parallel(
            schedule, instance, bandwidths, out_slots=out_slots, in_slots=in_slots
        )
    return [
        result.makespan.hex(),
        float(result.critical_path).hex(),
        float(result.sequential_time).hex(),
        [[t.position, t.start.hex(), t.finish.hex()] for t in result.trace],
        _metrics(registry),
    ]


PARALLEL_EXPECTED = {
    "RDF": (
        "57dc2b1b07d9bb3007c5bdc727eadd4654e0a13d73c412e4c847c3d2a91ebf53"
    ),
    "GSDF+H1": (
        "8ab7863a92875c530bfe2e904239c902a9f8ce5b73f1f3ed39462826e4eb0c3d"
    ),
    "GOLCF": (
        "f9bd43e721da419d005baf756ce1590b89c0dcb8a93eff522bc97bd32230a478"
    ),
    "GOLCF+H1+H2+OP1": (
        "395675b20b3a2a36425fc5b10003479a22d15d19b24e000f1a4a393250790c01"
    ),
    "GMC+H1": (
        "f35dae1385b10743cdce9f574ad4568c7b8dc297d346b9a22de8ad725eed7626"
    ),
}


@pytest.mark.parametrize("pipeline", sorted(PARALLEL_EXPECTED))
def test_simulate_parallel_digest(pipeline):
    rows = []
    for seed in INSTANCE_SEEDS:
        instance = _instance(seed)
        schedule = build_pipeline(pipeline).run(instance, rng=seed)
        for name, make in BANDWIDTHS.items():
            bandwidths = make(instance)
            for out_slots, in_slots in SLOTS:
                rows.append(
                    [seed, name, out_slots, in_slots]
                    + _parallel_rows(
                        schedule, instance, bandwidths, out_slots, in_slots
                    )
                )
    assert _digest(rows) == PARALLEL_EXPECTED[pipeline]


def _scenarios(schedule, instance, bandwidths):
    """Fault injections keyed by name: keyword arguments for the loop."""
    first = next(a for a in schedule if isinstance(a, Transfer))
    quarter = sequential_makespan(schedule, instance, bandwidths) / 4
    return {
        "empty": {},
        "transfer-failure": {"fail_attempts": {3}},
        "failure-with-offset": {"fail_attempts": {9}, "attempt_offset": 4},
        "mid-run-crash": {"crashes": [(quarter, 1), (2 * quarter, 0)]},
        "crash-before-start": {"crashes": [(1.0, 2)], "start_time": 5.0},
        "slowdown": {
            "slowdowns": [
                (0.0, first.target, first.source, 3.0),
                (quarter, 0, instance.dummy, 2.5),
            ]
        },
    }


def _faulted_rows(schedule, instance, bandwidths, slots, fault_kwargs):
    registry = MetricsRegistry()
    state = SystemState(instance)
    with use_metrics(registry):
        result = simulate_with_faults(
            schedule,
            instance,
            bandwidths,
            state,
            out_slots=slots[0],
            in_slots=slots[1],
            **fault_kwargs,
        )
    return [
        [
            [e.status, e.position, repr(e.action), e.start.hex(), e.finish.hex()]
            for e in result.trace
        ],
        float(result.stop_time).hex(),
        float(result.wasted_cost).hex(),
        result.attempts,
        result.completed,
        result.failure,
        None if result.crash_fired is None else list(result.crash_fired),
        result.failed_attempt,
        hashlib.sha256(state.placement().tobytes()).hexdigest(),
        _metrics(registry),
    ]


FAULTED_EXPECTED = {
    "empty": (
        "11126793941a08cbba6b5b76c37c968ad155c6e84a82772e6577881928cf17eb"
    ),
    "transfer-failure": (
        "89f7129a4b9df43655cddd3192932aba62caa8e06adb7c5c1fcb789a149ca1bc"
    ),
    "failure-with-offset": (
        "f0de8f0b1adbe71f34093568a48e9970a974055c0a2c55982d5b2710c15c8897"
    ),
    "mid-run-crash": (
        "77280547e269400461ae10455f204eeeacf664e244ca030e0b3ca8f99275d6b0"
    ),
    "crash-before-start": (
        "8c0387dd1530698a6420d8877ac42ae649491a6c9e6ee34a7f91654284374517"
    ),
    "slowdown": (
        "5ebace2718e6fc6d08abf41f21ab670a3bd01621499fb047a0b74de55a1fab69"
    ),
}


@pytest.mark.parametrize("scenario", sorted(FAULTED_EXPECTED))
def test_simulate_with_faults_digest(scenario):
    rows = []
    for seed in INSTANCE_SEEDS[:2]:
        instance = _instance(seed)
        for pipeline in ("GSDF+H1", "GOLCF+H1+H2+OP1"):
            schedule = build_pipeline(pipeline).run(instance, rng=seed)
            for name, make in BANDWIDTHS.items():
                bandwidths = make(instance)
                fault_kwargs = _scenarios(schedule, instance, bandwidths)[scenario]
                for slots in ((1, 1), (2, 2)):
                    rows.append(
                        [seed, pipeline, name, list(slots)]
                        + _faulted_rows(
                            schedule, instance, bandwidths, slots, fault_kwargs
                        )
                    )
    assert _digest(rows) == FAULTED_EXPECTED[scenario]


def test_metric_names_per_entry_point():
    """A plain run registers no fault counters; a faulted run registers
    all of them, even when nothing fails."""
    instance = _instance(0)
    schedule = build_pipeline("GSDF+H1").run(instance, rng=0)
    bandwidths = bandwidths_from_costs(instance.costs)
    plain, faulted = MetricsRegistry(), MetricsRegistry()
    with use_metrics(plain):
        simulate_parallel(schedule, instance, bandwidths)
    with use_metrics(faulted):
        simulate_with_faults(schedule, instance, bandwidths, SystemState(instance))
    histograms = ["executor.queue_depth", "executor.in_flight"]
    assert list(plain.snapshot()["counters"]) == ["executor.transfers_started"]
    assert list(plain.snapshot()["histograms"]) == histograms
    assert list(faulted.snapshot()["counters"]) == [
        "executor.transfers_started",
        "executor.aborted_transfers",
        "executor.failed_transfers",
        "executor.crash_losses",
    ]
    assert list(faulted.snapshot()["histograms"]) == histograms
