"""Sub-instance extraction and schedule globalization."""

import numpy as np
import pytest

from repro.core.pipeline import build_pipeline
from repro.model.actions import Delete, Transfer
from repro.model.schedule import KIND_DELETE, KIND_TRANSFER
from repro.shard import CostMatrixStore, partition_connected
from repro.shard.subinstance import extract_subinstance
from repro.util.errors import ConfigurationError


@pytest.fixture(scope="module")
def first_part(composed):
    return partition_connected(composed).parts[0]


class TestExtract:
    def test_local_instance_matches_global_slices(self, composed, first_part):
        sub = extract_subinstance(composed, first_part)
        servers = np.asarray(first_part.servers)
        objects = np.asarray(first_part.objects)
        grid = np.ix_(servers, objects)
        assert np.array_equal(sub.instance.x_old, composed.x_old[grid])
        assert np.array_equal(sub.instance.x_new, composed.x_new[grid])
        assert np.array_equal(sub.instance.sizes, composed.sizes[objects])
        assert np.array_equal(
            sub.instance.capacities, composed.capacities[servers]
        )
        extended = list(first_part.servers) + [composed.dummy]
        grid = np.ix_(extended, extended)
        assert np.array_equal(sub.instance.costs, composed.costs[grid])

    def test_cost_store_slice_equals_direct(self, composed, first_part):
        direct = extract_subinstance(composed, first_part)
        with CostMatrixStore.from_matrix(composed.costs, spill=True) as store:
            stored = extract_subinstance(composed, first_part, cost_store=store)
        assert np.array_equal(direct.instance.costs, stored.instance.costs)

    def test_infeasible_capacity_override_reports_part(
        self, composed, first_part
    ):
        zero = tuple(0.0 for _ in range(composed.num_servers))
        with pytest.raises(ConfigurationError, match="infeasible"):
            extract_subinstance(composed, first_part, capacities=zero)


class TestGlobalize:
    def test_actions_map_back_to_global_indices(self, composed, first_part):
        sub = extract_subinstance(composed, first_part)
        schedule = build_pipeline("GOLCF+H1").run(sub.instance, rng=4)
        kinds, primary, objs, sources = sub.globalize(schedule)
        assert len(kinds) == len(schedule)
        for action, kind, target, obj, source in zip(
            schedule, kinds, primary, objs, sources
        ):
            if isinstance(action, Transfer):
                assert kind == KIND_TRANSFER
                assert target == first_part.servers[action.target]
                assert obj == first_part.objects[action.obj]
                expected = (
                    composed.dummy
                    if action.source == sub.instance.dummy
                    else first_part.servers[action.source]
                )
                assert source == expected
            else:
                assert isinstance(action, Delete)
                assert kind == KIND_DELETE
                assert target == first_part.servers[action.server]
                assert obj == first_part.objects[action.obj]
                assert source == 0
