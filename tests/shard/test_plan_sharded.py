"""Differential suite for sharded planning and stitching."""

import numpy as np
import pytest

from repro.core.pipeline import build_pipeline
from repro.exact.differential import DEFAULT_FAMILIES, family_instances
from repro.exact.validate import check_invariants
from repro.model.instance import RtspInstance
from repro.model.schedule import Schedule
from repro.shard import (
    compose_instances,
    partition_by_object_family,
    partition_by_zone,
    partition_connected,
    plan_sharded,
)
from repro.shard.subinstance import extract_subinstance
from repro.util.errors import ConfigurationError
from repro.util.rng import derive_seed

PIPELINE = "GOLCF+H1"
SEED = 7


@pytest.fixture(scope="module")
def pipeline():
    return build_pipeline(PIPELINE)


@pytest.fixture(scope="module")
def reference(composed, pipeline):
    """The canonical stitched schedule, computed independently of
    plan_sharded's pool/bin machinery: plan each component sub-instance
    with its derived seed, in canonical part order, and concatenate."""
    partition = partition_connected(composed)
    kinds, primary, objs, sources = [], [], [], []
    for part in partition.parts:
        sub = extract_subinstance(composed, part)
        seed = derive_seed(SEED, "shard", part.key)
        schedule = pipeline.run(sub.instance, rng=seed)
        k, p, o, s = sub.globalize(schedule)
        kinds.extend(k)
        primary.extend(p)
        objs.extend(o)
        sources.extend(s)
    return Schedule.from_arrays(kinds, primary, objs, sources)


class TestStitchDifferential:
    @pytest.mark.parametrize("shards", [None, 1, 2, 4])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_byte_identical_for_every_shard_and_worker_count(
        self, composed, pipeline, reference, shards, workers
    ):
        plan = plan_sharded(
            composed, pipeline, shards=shards, workers=workers, rng=SEED
        )
        assert list(plan.schedule) == list(reference)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_skipping_the_oracle_leaves_the_schedule_unchanged(
        self, composed, pipeline, reference, workers
    ):
        plan = plan_sharded(
            composed, pipeline, shards=2, workers=workers, rng=SEED,
            validate=False,
        )
        assert plan.invariant_report is None
        assert list(plan.schedule) == list(reference)

    def test_single_part_matches_unsharded_planning(self, blocks, pipeline):
        instance = blocks[0]
        unsharded = pipeline.run(instance, rng=SEED)
        plan = plan_sharded(
            instance, pipeline, shards=4, workers=2, rng=SEED
        )
        assert len(plan.partition.parts) == 1
        assert list(plan.schedule) == list(unsharded)

    def test_stitched_schedule_passes_oracle_and_costs_agree(
        self, composed, pipeline
    ):
        plan = plan_sharded(composed, pipeline, shards=2, rng=SEED)
        assert plan.invariant_report is not None
        assert plan.invariant_report.ok
        assert plan.cost == pytest.approx(plan.schedule.cost(composed))
        assert plan.cross_shard_dummies == 0  # exact partition
        assert sum(s.num_actions for s in plan.stats) == plan.num_actions


class TestExactOracleFamilies:
    @pytest.mark.parametrize("family", DEFAULT_FAMILIES)
    def test_stitched_plans_stay_invariant_clean(self, family, pipeline):
        instances = family_instances(family, count=3)
        composed = compose_instances(instances)
        plan = plan_sharded(
            composed, pipeline, shards=2, workers=1, rng=SEED
        )
        report = check_invariants(composed, plan.schedule)
        assert report.ok, report.summary()
        assert plan.cost == pytest.approx(report.cost)


class TestInexactPartitions:
    def test_cut_zone_stitches_validly_with_dummy_surcharge(
        self, blocks, composed, pipeline
    ):
        zones = []
        for label, block in enumerate(blocks):
            zones.extend([label] * block.num_servers)
        half = blocks[0].num_servers // 2
        for server in range(half):
            zones[server] = "cut"
        partition = partition_by_zone(composed, zones)
        assert not partition.exact
        plan = plan_sharded(
            composed, pipeline, partitioner=partition, workers=2, rng=SEED
        )
        assert plan.invariant_report.ok
        assert plan.cross_shard_dummies > 0
        assert plan.dummy_transfers >= plan.cross_shard_dummies

    def test_object_families_plan_with_capacity_slack(self, blocks, pipeline):
        base = blocks[0]
        inst = RtspInstance.create(
            sizes=base.sizes,
            capacities=base.capacities * 2.0,
            costs=base.costs,
            x_old=base.x_old,
            x_new=base.x_new,
        )
        partition = partition_by_object_family(inst, 3)
        serial = plan_sharded(
            inst, pipeline, partitioner=partition, rng=SEED
        )
        packed = plan_sharded(
            inst, pipeline, partitioner=partition, shards=2, workers=2,
            rng=SEED,
        )
        assert list(serial.schedule) == list(packed.schedule)
        assert serial.invariant_report.ok


class TestArguments:
    def test_spec_string_builder_accepted(self, composed, reference):
        plan = plan_sharded(composed, PIPELINE, shards=2, rng=SEED)
        assert list(plan.schedule) == list(reference)

    def test_generator_rng_rejected_for_multipart(self, composed, pipeline):
        with pytest.raises(ConfigurationError, match="integer seed"):
            plan_sharded(
                composed, pipeline, rng=np.random.default_rng(0)
            )

    def test_bad_builder_rejected(self, composed):
        with pytest.raises(ConfigurationError, match="builder"):
            plan_sharded(composed, builder=42)

    def test_mmap_spill_does_not_change_plans(self, composed, pipeline):
        in_ram = plan_sharded(
            composed, pipeline, shards=2, rng=SEED, mmap_costs=False
        )
        spilled = plan_sharded(
            composed, pipeline, shards=2, workers=2, rng=SEED,
            mmap_costs=True,
        )
        assert list(in_ram.schedule) == list(spilled.schedule)

    def test_progress_reports_each_shard(self, composed, pipeline):
        lines = []
        plan = plan_sharded(
            composed, pipeline, shards=2, rng=SEED, progress=lines.append
        )
        assert len(lines) == len(plan.partition.parts)
        assert all("shard" in line for line in lines)
