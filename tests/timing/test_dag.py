"""Tests for the schedule dependency DAG."""

import networkx as nx
import numpy as np
import pytest

from repro.core import build_pipeline
from repro.model.actions import Delete, Transfer
from repro.model.schedule import Schedule
from repro.timing.dag import build_dependency_dag, critical_path_length
from repro.workloads.regular import paper_instance


@pytest.fixture(scope="module")
def instance():
    return paper_instance(replicas=2, num_servers=8, num_objects=24, rng=11)


def _edges(dag):
    return {(u, v) for u, successors in enumerate(dag) for v in successors}


def _reachable(dag):
    """Descendant sets of every position, as bitmasks (edges point forward)."""
    reach = [0] * len(dag)
    for u in range(len(dag) - 1, -1, -1):
        for v in dag[u]:
            reach[u] |= (1 << v) | reach[v]
    return reach


def _reference_dag(actions, instance):
    """The full edge rule: every earlier space event at a transfer's target,
    plus a create/delete alternation edge from the cell's last deletion."""
    succ = [set() for _ in actions]
    last_creation, last_deletion, readers, space_events = {}, {}, {}, {}
    for pos, action in enumerate(actions):
        if isinstance(action, Transfer):
            i, k, j = action.target, action.obj, action.source
            if j != instance.dummy:
                if (j, k) in last_creation:
                    succ[last_creation[(j, k)]].add(pos)
                readers.setdefault((j, k), []).append(pos)
            for prior in space_events.get(i, ()):
                succ[prior].add(pos)
            if (i, k) in last_deletion:
                succ[last_deletion[(i, k)]].add(pos)
            last_creation[(i, k)] = pos
            space_events.setdefault(i, []).append(pos)
        elif isinstance(action, Delete):
            i, k = action.server, action.obj
            if (i, k) in last_creation:
                succ[last_creation[(i, k)]].add(pos)
            for reader in readers.get((i, k), ()):
                succ[reader].add(pos)
            readers[(i, k)] = []
            last_deletion[(i, k)] = pos
            space_events.setdefault(i, []).append(pos)
    return [sorted(s) for s in succ]


class TestDagStructure:
    def test_acyclic(self, instance):
        for spec in ("RDF", "GOLCF", "GOLCF+H1+H2+OP1"):
            schedule = build_pipeline(spec).run(instance, rng=0)
            dag = build_dependency_dag(schedule.actions(), instance)
            assert len(dag) == len(schedule.actions())
            assert all(not reach >> u & 1 for u, reach in enumerate(_reachable(dag)))

    def test_edges_point_forward(self, instance):
        schedule = build_pipeline("GOLCF").run(instance, rng=1)
        dag = build_dependency_dag(schedule.actions(), instance)
        assert all(u < v for u, v in _edges(dag))

    def test_chain_dependency(self, tiny_instance):
        # transfer then the deletion of its source: deletion depends on it
        actions = [Transfer(2, 0, 0), Delete(0, 0)]
        dag = build_dependency_dag(actions, tiny_instance)
        assert 1 in dag[0]

    def test_created_source_dependency(self, tiny_instance):
        # second transfer reads the replica the first created
        actions = [Transfer(2, 0, 0), Delete(0, 0), Transfer(0, 0, 2)]
        dag = build_dependency_dag(actions, tiny_instance)
        assert 2 in dag[0]  # source created at 0
        assert 2 in dag[1]  # space freed at S0 (cell (0,0) deleted) before

    def test_independent_actions_unlinked(self, tiny_instance):
        # both target S2: conservative space edge
        actions = [Transfer(2, 0, 0), Transfer(2, 1, 1)]
        dag = build_dependency_dag(actions, tiny_instance)
        assert dag == [[1], []]
        # different targets, sources held from the start: no edge at all
        actions = [Transfer(1, 0, 0), Transfer(2, 1, 1)]
        dag = build_dependency_dag(actions, tiny_instance)
        assert dag == [[], []]

    def test_space_edges_skip_covered_events(self, tiny_instance):
        # the third transfer into S2 hangs off the second, which already
        # depends on the first and on the deletion between them
        actions = [
            Transfer(2, 0, 0), Delete(2, 0), Transfer(2, 1, 1),
            Transfer(2, 0, 0),
        ]
        dag = build_dependency_dag(actions, tiny_instance)
        assert _edges(dag) == {(0, 1), (1, 2), (0, 2), (2, 3)}

    def test_every_linearisation_is_valid(self, instance):
        """The conservative-DAG guarantee: random topological orders of
        the DAG replay validly."""
        schedule = build_pipeline("GOLCF+H1+H2").run(instance, rng=2)
        actions = schedule.actions()
        graph = nx.DiGraph()
        graph.add_nodes_from(range(len(actions)))
        graph.add_edges_from(_edges(build_dependency_dag(actions, instance)))
        rng = np.random.default_rng(0)
        for _ in range(5):
            order = list(
                nx.lexicographical_topological_sort(
                    graph, key=lambda v: rng.random()
                )
            )
            candidate = Schedule([actions[idx] for idx in order])
            assert candidate.validate(instance).ok


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("spec", ["RDF", "AR", "GSDF", "GOLCF", "GOLCF+H1+H2+OP1"])
def test_reduced_dag_matches_the_full_edge_rule(spec, seed):
    """Same reachability as the full rule, from a subset of its edges, and
    a float-identical critical path."""
    instance = paper_instance(replicas=2, num_servers=10, num_objects=40, rng=seed)
    actions = build_pipeline(spec).run(instance, rng=seed).actions()
    dag = build_dependency_dag(actions, instance)
    reference = _reference_dag(actions, instance)
    assert _edges(dag) <= _edges(reference)
    assert _reachable(dag) == _reachable(reference)
    durations = [
        0.0 if isinstance(a, Delete) else d
        for a, d in zip(actions, np.random.default_rng(seed).exponential(size=len(actions)))
    ]
    assert critical_path_length(dag, durations).hex() == (
        critical_path_length(reference, durations).hex()
    )


class TestCriticalPath:
    def test_empty(self, tiny_instance):
        dag = build_dependency_dag([], tiny_instance)
        assert critical_path_length(dag, []) == 0.0

    def test_chain_sums(self, tiny_instance):
        actions = [Transfer(2, 0, 0), Delete(0, 0), Transfer(0, 0, 2)]
        dag = build_dependency_dag(actions, tiny_instance)
        assert critical_path_length(dag, [3.0, 0.0, 5.0]) == 8.0

    def test_parallel_max(self, tiny_instance):
        actions = [Transfer(1, 0, 0), Transfer(2, 1, 1)]
        dag = build_dependency_dag(actions, tiny_instance)
        assert critical_path_length(dag, [3.0, 5.0]) == 5.0
