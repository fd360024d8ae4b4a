"""Tests for the discrete-event schedule executor."""

import numpy as np
import pytest

from repro.core import build_pipeline
from repro.model.actions import Delete, Transfer
from repro.model.schedule import Schedule
from repro.timing.bandwidth import bandwidths_from_costs, uniform_bandwidths
from repro.timing.deadline import makespan_by_pipeline, meets_deadline
from repro.timing.executor import sequential_makespan, simulate_parallel
from repro.util.errors import ConfigurationError, InvalidActionError
from repro.workloads.regular import paper_instance


@pytest.fixture(scope="module")
def instance():
    return paper_instance(replicas=2, num_servers=10, num_objects=30, rng=13)


@pytest.fixture(scope="module")
def schedule(instance):
    return build_pipeline("GOLCF+H1+H2+OP1").run(instance, rng=0)


@pytest.fixture(scope="module")
def bandwidths(instance):
    return bandwidths_from_costs(instance.costs)


class TestInvariants:
    def test_sandwich(self, instance, schedule, bandwidths):
        result = simulate_parallel(schedule, instance, bandwidths)
        assert result.critical_path <= result.makespan + 1e-9
        assert result.makespan <= result.sequential_time + 1e-9
        assert result.sequential_time == pytest.approx(
            sequential_makespan(schedule, instance, bandwidths)
        )

    def test_trace_is_valid_execution(self, instance, schedule, bandwidths):
        result = simulate_parallel(schedule, instance, bandwidths)
        order = sorted(result.trace, key=lambda t: (t.start, t.position))
        replayed = Schedule([t.action for t in order])
        assert replayed.validate(instance).ok

    def test_trace_covers_all_actions(self, instance, schedule, bandwidths):
        result = simulate_parallel(schedule, instance, bandwidths)
        assert len(result.trace) == len(schedule)
        assert {t.position for t in result.trace} == set(range(len(schedule)))

    def test_deletions_are_instant(self, instance, schedule, bandwidths):
        result = simulate_parallel(schedule, instance, bandwidths)
        for t in result.trace:
            if isinstance(t.action, Delete):
                assert t.duration == 0.0

    def test_more_slots_never_slower(self, instance, schedule, bandwidths):
        narrow = simulate_parallel(schedule, instance, bandwidths)
        wide = simulate_parallel(
            schedule, instance, bandwidths, out_slots=4, in_slots=4
        )
        assert wide.makespan <= narrow.makespan + 1e-9

    def test_slot_limits_respected(self, instance, schedule, bandwidths):
        result = simulate_parallel(schedule, instance, bandwidths)
        events = []
        for t in result.trace:
            if isinstance(t.action, Transfer) and t.duration > 0:
                events.append((t.start, 1, t.action))
                events.append((t.finish, -1, t.action))
        events.sort(key=lambda e: (e[0], e[1]))
        in_use = {}
        for _, delta, action in events:
            in_use[action.target] = in_use.get(action.target, 0) + delta
            assert in_use[action.target] <= 1

    def test_parallelism_achieved(self, instance, schedule, bandwidths):
        """A real schedule on 10 servers should overlap transfers."""
        result = simulate_parallel(schedule, instance, bandwidths)
        assert result.speedup > 1.2


class TestSmallScenarios:
    def test_single_transfer_duration(self, tiny_instance):
        bw = uniform_bandwidths(3, rate=0.5)
        schedule = Schedule([Transfer(2, 0, 0), Delete(0, 0)])
        result = simulate_parallel(schedule, tiny_instance, bw)
        # size 1 at rate 0.5 => 2 time units
        assert result.makespan == pytest.approx(2.0)

    def test_independent_transfers_overlap(self, tiny_instance):
        bw = uniform_bandwidths(3, rate=1.0)
        schedule = Schedule(
            [Transfer(1, 0, 0), Transfer(2, 1, 1), Delete(0, 0)]
        )
        # hmm: schedule must end at X_new; use raw trace semantics only
        result = simulate_parallel(
            Schedule([Transfer(1, 0, 0), Transfer(2, 1, 1)]),
            tiny_instance,
            bw,
        )
        assert result.makespan == pytest.approx(1.0)  # both run at t=0

    def test_dependent_transfers_serialise(self, tiny_instance):
        bw = uniform_bandwidths(3, rate=1.0)
        schedule = Schedule([Transfer(2, 0, 0), Delete(0, 0)])
        chained = Schedule(
            [Transfer(2, 0, 0), Delete(0, 0), Transfer(0, 0, 2), Delete(2, 0)]
        )
        short = simulate_parallel(schedule, tiny_instance, bw)
        long = simulate_parallel(chained, tiny_instance, bw)
        assert long.makespan == pytest.approx(2 * short.makespan)

    def test_bad_slots_rejected(self, tiny_instance):
        bw = uniform_bandwidths(3)
        with pytest.raises(ConfigurationError):
            simulate_parallel(Schedule(), tiny_instance, bw, out_slots=0)

    def test_invalid_schedule_raises(self, tiny_instance):
        # S1 does not hold O0, so the transfer has no source replica.
        bw = uniform_bandwidths(3)
        schedule = Schedule([Transfer(2, 0, 1), Delete(0, 0)])
        with pytest.raises(InvalidActionError) as excinfo:
            simulate_parallel(schedule, tiny_instance, bw)
        assert excinfo.value.position == 0
        with pytest.raises(InvalidActionError):
            meets_deadline(schedule, tiny_instance, float("inf"), bw)

    def test_empty_schedule(self, tiny_instance):
        bw = uniform_bandwidths(3)
        result = simulate_parallel(Schedule(), tiny_instance, bw)
        assert result.makespan == 0.0
        assert result.trace == []


class TestDeadline:
    def test_meets_its_own_makespan(self, instance, schedule, bandwidths):
        result = simulate_parallel(schedule, instance, bandwidths)
        assert meets_deadline(schedule, instance, result.makespan, bandwidths)
        assert not meets_deadline(
            schedule, instance, result.makespan * 0.5, bandwidths
        )

    def test_default_bandwidths(self, instance, schedule):
        assert meets_deadline(schedule, instance, float("inf"))

    def test_relative_tolerance(self, instance, schedule, bandwidths):
        # A deadline one float-ulp below the makespan is a rounding
        # artefact, not a miss: the relative tolerance must absorb it.
        result = simulate_parallel(schedule, instance, bandwidths)
        just_below = np.nextafter(result.makespan, 0.0)
        assert meets_deadline(schedule, instance, just_below, bandwidths)
        assert meets_deadline(
            schedule, instance, result.makespan * (1 - 1e-12), bandwidths
        )

    def test_makespan_by_pipeline(self, instance):
        results = makespan_by_pipeline(instance, ["RDF", "GOLCF+H1+H2+OP1"])
        assert set(results) == {"RDF", "GOLCF+H1+H2+OP1"}
        for res in results.values():
            assert res.makespan > 0
