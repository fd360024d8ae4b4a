"""Performance micro-benchmarks: state machine, validator, network.

Ablation 1 of DESIGN.md: the schedule validator is the optimizers' inner
loop — ``test_full_validation`` vs. ``test_window_validation`` quantifies
what the window-replay shortcut buys, and ``test_indexed_validation``
what deciding the same window from the schedule index buys on top.
Ablation 3: nearest-source queries under the two state representations.
"""

import numpy as np
import pytest

from repro.core import get_builder
from repro.core.optimizers.common import ArrayState, ScheduleIndex, window_valid
from repro.model.actions import Transfer
from repro.model.state import SystemState
from repro.network.brite import brite_paper_topology
from repro.network.paths import all_pairs_shortest_paths
from repro.workloads.regular import paper_instance


@pytest.fixture(scope="module")
def instance(bench_scale):
    return paper_instance(
        replicas=2,
        num_servers=bench_scale.num_servers,
        num_objects=bench_scale.num_objects,
        rng=bench_scale.base_seed,
    )


@pytest.fixture(scope="module")
def schedule(instance):
    return get_builder("GOLCF").build(instance, rng=2)


def test_full_validation(benchmark, instance, schedule):
    """Full-schedule replay (the optimizers' pre-rewrite baseline)."""
    report = benchmark(schedule.validate, instance)
    assert report.ok


def _last_window(instance, schedule):
    """The schedule's actions, the start of its last 32 and the state
    before them."""
    actions = schedule.actions()
    start = max(0, len(actions) - 32)
    state = ArrayState(instance)
    for a in actions[:start]:
        state.apply(a)
    return actions, start, state


def test_window_validation(benchmark, instance, schedule):
    """Window replay of the last 32 actions from the state before them."""
    actions, start, state = _last_window(instance, schedule)
    ok = benchmark(window_valid, state, actions[start:])
    assert ok


def test_indexed_validation(benchmark, instance, schedule):
    """The same window as a rewrite touching its last transfer, decided
    from the schedule index — the per-candidate check inside H1/H2."""
    actions, start, state = _last_window(instance, schedule)
    end = len(actions)
    index = ScheduleIndex(ArrayState(instance), actions)
    last = max(x for x in range(start, end) if isinstance(actions[x], Transfer))
    subst = {last: (actions[last],)}
    ok = benchmark(index.rewrite_valid, start, end, [], subst)
    assert ok and window_valid(state, index.window(start, end, [], subst))


def test_state_apply_throughput(benchmark, instance, schedule):
    actions = schedule.actions()

    def replay():
        state = SystemState(instance)
        for a in actions:
            state.apply(a)
        return state

    state = benchmark(replay)
    assert state.matches(instance.x_new)


def test_array_state_apply_throughput(benchmark, instance, schedule):
    actions = schedule.actions()

    def replay():
        state = ArrayState(instance)
        for a in actions:
            state.apply(a)
        return state

    state = benchmark(replay)
    assert bytes(state.cells) == instance.x_new.astype(np.int8).tobytes()


def test_nearest_query_system_state(benchmark, instance):
    state = SystemState(instance)
    targets = [(i, k) for i in range(instance.num_servers) for k in range(8)]

    def queries():
        return sum(state.nearest(i, k) for i, k in targets)

    benchmark(queries)


def test_nearest_query_array_state(benchmark, instance):
    state = ArrayState(instance)
    targets = [(i, k) for i in range(instance.num_servers) for k in range(8)]

    def queries():
        return sum(state.nearest(i, k) for i, k in targets)

    benchmark(queries)


def test_brite_topology_generation(benchmark, bench_scale):
    topo = benchmark(brite_paper_topology, n=bench_scale.num_servers, rng=0)
    assert topo.is_tree()


def test_all_pairs_shortest_paths(benchmark, bench_scale):
    topo = brite_paper_topology(n=bench_scale.num_servers, rng=0)
    costs = benchmark(all_pairs_shortest_paths, topo)
    assert np.isfinite(costs).all()
