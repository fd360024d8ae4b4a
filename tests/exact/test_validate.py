"""Tests for the strict invariant oracle (:mod:`repro.exact.validate`)."""

import hashlib

import numpy as np
import pytest

from repro.core import build_pipeline, get_builder
from repro.exact import assert_invariants, check_invariants, resolve_validator
from repro.model.actions import Delete, Transfer
from repro.model.instance import RtspInstance
from repro.model.schedule import Schedule
from repro.util.errors import ConfigurationError, InvalidScheduleError
from repro.workloads.regular import paper_instance


@pytest.fixture
def instance():
    """Three servers, two unit objects, O0 moving from S0 to S2."""
    x_old = np.array([[1, 0], [0, 1], [0, 0]], dtype=np.int8)
    x_new = np.array([[0, 0], [0, 1], [1, 0]], dtype=np.int8)
    costs = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    return RtspInstance.create(
        [1.0, 1.0], [2.0, 2.0, 1.0], costs, x_old, x_new
    )


@pytest.fixture
def valid_schedule():
    return Schedule([Transfer(2, 0, 0), Delete(0, 0)])


class TestValidSchedules:
    def test_accepts_and_recomputes(self, instance, valid_schedule):
        report = check_invariants(instance, valid_schedule)
        assert report.ok
        assert report.violations == ()
        assert report.first is None
        assert report.cost == pytest.approx(valid_schedule.cost(instance))
        assert report.dummy_transfers == 0
        assert report.num_actions == 2
        assert report.summary().startswith("valid")

    def test_peak_load_tracks_prefix_maximum(self, instance, valid_schedule):
        report = check_invariants(instance, valid_schedule)
        # S2 rises to 1.0 when the transfer lands; S0 starts (and peaks)
        # at 1.0 before its delete.
        assert report.peak_load == (1.0, 1.0, 1.0)

    def test_assert_returns_report(self, instance, valid_schedule):
        report = assert_invariants(instance, valid_schedule)
        assert report.ok

    def test_agrees_with_model_on_builders(self, instance, fig1, fig3):
        for inst in (instance, fig1, fig3):
            for name in ("RDF", "GSDF", "AR", "GOLCF"):
                schedule = get_builder(name).build(inst, rng=0)
                report = check_invariants(inst, schedule)
                assert report.ok, report.summary()
                assert report.cost == pytest.approx(schedule.cost(inst))
                assert report.dummy_transfers == (
                    schedule.count_dummy_transfers(inst)
                )


class TestViolations:
    def rule_of(self, instance, actions):
        report = check_invariants(instance, Schedule(actions))
        assert not report.ok
        return report.first.rule

    def test_source_missing(self, instance):
        assert self.rule_of(instance, [Transfer(2, 0, 1)]) == "source-missing"

    def test_target_present(self, instance):
        actions = [Transfer(2, 0, 0), Transfer(2, 0, 0)]
        assert self.rule_of(instance, actions) == "target-present"

    def test_self_transfer(self, instance):
        assert self.rule_of(instance, [Transfer(0, 0, 0)]) == "self-transfer"

    def test_dummy_target(self, instance):
        dummy = instance.dummy
        assert self.rule_of(instance, [Transfer(dummy, 0, 0)]) == "dummy-target"

    def test_dummy_delete(self, instance):
        assert self.rule_of(instance, [Delete(instance.dummy, 0)]) == (
            "dummy-delete"
        )

    def test_replica_missing(self, instance):
        assert self.rule_of(instance, [Delete(2, 0)]) == "replica-missing"

    def test_capacity_at_prefix(self, instance):
        # S2 has room for one unit object; a second transfer overflows it
        # even though deleting later would fix the end state.
        actions = [Transfer(2, 0, 0), Transfer(2, 1, 1)]
        assert self.rule_of(instance, actions) == "capacity"

    def test_index_range(self, instance):
        assert self.rule_of(instance, [Transfer(99, 0, 0)]) == "index-range"
        assert self.rule_of(instance, [Delete(0, 99)]) == "index-range"

    def test_unknown_action(self, instance):
        assert self.rule_of(instance, [object()]) == "unknown-action"

    def test_landing(self, instance):
        # Valid steps, wrong destination: O0 never reaches S2.
        report = check_invariants(instance, Schedule([]))
        assert not report.ok
        assert report.first.rule == "landing"
        assert report.first.position is None

    def test_invalid_actions_still_charged(self, instance):
        # Differential comparisons need the cost of the whole sequence.
        report = check_invariants(
            instance, Schedule([Transfer(2, 0, 0), Transfer(2, 0, 0)])
        )
        assert not report.ok
        assert report.cost == pytest.approx(2 * instance.costs[2, 0])

    def test_assert_raises_with_context(self, instance):
        with pytest.raises(InvalidScheduleError, match="unit-test:"):
            assert_invariants(instance, Schedule([]), context="unit-test")


def _fleet_instance():
    """3 blocks of 8 servers x 40 objects, two holders per object before
    and after, fractional sizes and link costs, loose capacities."""
    rng = np.random.default_rng(7)
    blocks, bm, bn = 3, 8, 40
    m, n = blocks * bm, blocks * bn
    costs = np.full((m, m), 90.0)
    for b in range(blocks):
        pts = rng.random((bm, 2)) * 30
        span = slice(b * bm, (b + 1) * bm)
        costs[span, span] = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    np.fill_diagonal(costs, 0.0)
    sizes = rng.uniform(0.5, 9.5, size=n)
    cols = np.arange(n)
    first = (cols // bn) * bm
    x_old = np.zeros((m, n), dtype=np.int8)
    x_new = np.zeros((m, n), dtype=np.int8)
    for x in (x_old, x_new):
        for _ in range(2):
            x[first + rng.integers(0, bm, size=n), cols] = 1
    caps = np.maximum(x_old @ sizes, x_new @ sizes) * 1.2 + 3.0
    return RtspInstance.create(sizes, caps, costs, x_old, x_new)


_PINNED_INSTANCES = {
    "fleet": _fleet_instance,
    "paper": lambda: paper_instance(
        replicas=2, num_servers=10, num_objects=40, rng=5
    ),
}


def _variant(instance, variant):
    actions = list(build_pipeline("GOLCF+H1").run(instance, rng=0))
    if variant == "valid":
        return actions
    if variant == "truncated":
        return actions[: len(actions) // 2]
    if variant == "first-dropped":
        return actions[1:]
    # dummy-prepended: an extra dummy transfer of an object S0 lacks.
    k = int(np.flatnonzero(instance.x_old[0] == 0)[0])
    return [Transfer(0, k, instance.dummy)] + actions


#: The complete report per (instance, variant): ok, every violation as
#: (rule, position, message), repr(cost), dummy transfers, action count
#: and a digest of repr(peak_load). Floats are pinned by repr, so a
#: reordered accumulation fails here.
_PINNED_REPORTS = {
    ("fleet", "valid"): (
        True, [], "14974.12468053202", 0, 357, "929a8dd5b1678cb5"),
    ("fleet", "truncated"): (
        False,
        [("landing", None, "final placement differs from X_new at 179 "
                           "entries (first: server 7, object 0)")],
        "8371.101915724488", 0, 178, "bd4f70930497c41b"),
    ("fleet", "first-dropped"): (
        False,
        [("landing", None, "final placement differs from X_new at 1 "
                           "entries (first: server 17, object 98)")],
        "14967.945491332042", 0, 356, "b6f24bb05638c338"),
    ("fleet", "dummy-prepended"): (
        False,
        [("capacity", 127, "T(0,8,2): S_0 would hold 64.3874 of 62.5423")],
        "15435.490142062008", 1, 358, "17af87f28adb61d2"),
    ("paper", "valid"): (
        True, [], "3015000.0", 0, 160, "d8ef0b546dde7fe4"),
    ("paper", "truncated"): (
        False,
        [("landing", None, "final placement differs from X_new at 80 "
                           "entries (first: server 0, object 0)")],
        "1070000.0", 0, 80, "d8ef0b546dde7fe4"),
    ("paper", "first-dropped"): (
        False,
        [("capacity", 0, "T(9,22,0): S_9 would hold 45000 of 40000")],
        "3015000.0", 0, 159, "d8ef0b546dde7fe4"),
    ("paper", "dummy-prepended"): (
        False,
        [("capacity", 0, "T(0,1,10): S_0 would hold 45000 of 40000")],
        "3130000.0", 1, 161, "d8ef0b546dde7fe4"),
}


class TestPinnedReports:
    @pytest.mark.parametrize(
        "case", sorted(_PINNED_REPORTS), ids="-".join
    )
    def test_report_is_pinned(self, case):
        name, variant = case
        instance = _PINNED_INSTANCES[name]()
        report = check_invariants(instance, _variant(instance, variant))
        got = (
            report.ok,
            [(v.rule, v.position, v.message) for v in report.violations],
            repr(report.cost),
            report.dummy_transfers,
            report.num_actions,
            hashlib.sha256(repr(report.peak_load).encode()).hexdigest()[:16],
        )
        assert got == _PINNED_REPORTS[case]

    def test_landing_counts_and_orders_object_major(self, instance):
        # O0 lands on S2 and then is deleted there; O1 also reaches S0.
        # Mismatches: (S2, O0) and (S0, O1). Object-major order names
        # (S2, O0) first, where server-major order would name (S0, O1).
        actions = [
            Transfer(2, 0, 0), Delete(0, 0), Transfer(0, 1, 1), Delete(2, 0),
        ]
        report = check_invariants(instance, Schedule(actions))
        assert not report.ok
        assert len(report.violations) == 1
        landing = report.first
        assert landing.rule == "landing"
        assert landing.position is None
        assert landing.message == (
            "final placement differs from X_new at 2 entries "
            "(first: server 2, object 0)"
        )
        assert report.peak_load == (1.0, 1.0, 1.0)


class TestResolveValidator:
    def test_none_and_false_disable(self):
        assert resolve_validator(None) is None
        assert resolve_validator(False) is None

    def test_basic_replays_model(self, instance, valid_schedule):
        validator = resolve_validator("basic")
        validator(instance, valid_schedule)  # does not raise
        with pytest.raises(InvalidScheduleError):
            validator(instance, Schedule([]))

    def test_strict_uses_oracle(self, instance, valid_schedule):
        validator = resolve_validator("strict")
        validator(instance, valid_schedule)
        with pytest.raises(InvalidScheduleError):
            validator(instance, Schedule([Transfer(2, 0, 1)]))

    def test_callable_passthrough(self):
        sentinel = lambda instance, schedule: None  # noqa: E731
        assert resolve_validator(sentinel) is sentinel

    def test_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            resolve_validator("very-strict")
        with pytest.raises(ConfigurationError):
            resolve_validator(3.14)


class TestPipelineWiring:
    def test_strict_pipeline_accepts_all_stages(self, fig3):
        schedule = build_pipeline("GOLCF+H1+H2+OP1", validate="strict").run(
            fig3, rng=0
        )
        assert schedule.validate(fig3).ok

    def test_failing_validator_names_stage(self, fig3):
        def reject(instance, schedule):
            raise InvalidScheduleError("nope", position=0)

        with pytest.raises(InvalidScheduleError, match="stage 'GSDF'"):
            build_pipeline("GSDF", validate=reject).run(fig3, rng=0)

    def test_build_checked_default_strict(self, fig3):
        schedule = get_builder("GOLCF").build_checked(fig3, rng=0)
        assert schedule.validate(fig3).ok
