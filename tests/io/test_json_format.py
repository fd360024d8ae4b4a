"""Tests for JSON serialization."""

import json

import numpy as np
import pytest

from repro.core import build_pipeline
from repro.io import (
    failure_trace_from_dict,
    failure_trace_to_dict,
    fault_plan_from_dict,
    fault_plan_to_dict,
    instance_from_dict,
    instance_to_dict,
    load_failure_trace,
    load_fault_plan,
    load_instance,
    load_schedule,
    save_failure_trace,
    save_fault_plan,
    save_instance,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.model.actions import Delete, Transfer
from repro.model.schedule import Schedule
from repro.robust import FaultPlan, execute_with_repair
from repro.robust.faults import LinkSlowdown, ServerCrash, TransferFault
from repro.util.errors import ConfigurationError
from repro.workloads.regular import paper_instance


@pytest.fixture(scope="module")
def instance():
    return paper_instance(replicas=2, num_servers=6, num_objects=12, rng=1)


@pytest.fixture(scope="module")
def schedule(instance):
    return build_pipeline("GOLCF+H1+H2").run(instance, rng=0)


class TestInstanceRoundTrip:
    def test_dict_round_trip(self, instance):
        restored = instance_from_dict(instance_to_dict(instance))
        assert (restored.x_old == instance.x_old).all()
        assert (restored.x_new == instance.x_new).all()
        assert np.allclose(restored.costs, instance.costs)
        assert np.allclose(restored.sizes, instance.sizes)
        assert np.allclose(restored.capacities, instance.capacities)

    def test_file_round_trip(self, instance, tmp_path):
        path = tmp_path / "instance.json"
        save_instance(instance, path)
        restored = load_instance(path)
        assert (restored.x_new == instance.x_new).all()

    def test_json_serialisable(self, instance):
        json.dumps(instance_to_dict(instance))  # no numpy leakage

    def test_format_tag_checked(self, instance):
        data = instance_to_dict(instance)
        data["format"] = "something-else"
        with pytest.raises(ConfigurationError, match="format"):
            instance_from_dict(data)

    def test_missing_key(self, instance):
        data = instance_to_dict(instance)
        del data["sizes"]
        with pytest.raises(ConfigurationError, match="missing"):
            instance_from_dict(data)

    @pytest.mark.parametrize(
        "key,value,cell", [("x_new", 0, 0.4), ("x_old", 1, 1.7)]
    )
    def test_rejects_fractional_placement_cells(self, instance, key, value, cell):
        # A cast to int8 before the 0/1 check would turn 0.4 into 0 and
        # 1.7 into 1 and accept the instance.
        data = instance_to_dict(instance)
        i, k = np.argwhere(getattr(instance, key) == value)[0]
        data[key][i][k] = cell
        with pytest.raises(ConfigurationError, match="0/1"):
            instance_from_dict(data)

    @pytest.mark.parametrize("key,value", [("x_old", 1), ("x_new", 0)])
    def test_rejects_boolean_placement_cells(self, instance, key, value):
        # JSON true/false are not 0/1 entries, whether one cell or a
        # whole row of them; deltas reject them the same way.
        data = instance_to_dict(instance)
        i, k = np.argwhere(getattr(instance, key) == value)[0]
        data[key][i][k] = bool(value)
        with pytest.raises(ConfigurationError, match="0/1"):
            instance_from_dict(data)
        data = instance_to_dict(instance)
        data[key][i] = [bool(cell) for cell in data[key][i]]
        with pytest.raises(ConfigurationError, match="0/1"):
            instance_from_dict(data)

    def test_accepts_integral_float_placement_cells(self, instance):
        data = instance_to_dict(instance)
        data["x_old"] = [[float(cell) for cell in row] for row in data["x_old"]]
        restored = instance_from_dict(data)
        assert restored.x_old.dtype == np.int8
        assert (restored.x_old == instance.x_old).all()

    @pytest.mark.parametrize(
        "rows", [[[1, 0], [0]], [(1, 0)], [[1, "0"]], [[None, 1]], [[2, 0]], []]
    )
    def test_rejects_malformed_placement_rows(self, instance, rows):
        data = instance_to_dict(instance)
        data["x_new"] = rows
        with pytest.raises(ConfigurationError):
            instance_from_dict(data)

    @pytest.mark.parametrize(
        "key,index,cell",
        [
            ("sizes", 0, "1"),
            ("sizes", 1, True),
            ("capacities", 1, "5e0"),
            ("capacities", 0, False),
            ("costs", 1, "1"),
            ("costs", 2, True),
        ],
    )
    def test_rejects_non_number_entries(self, instance, key, index, cell):
        # numpy casts "1" and true to 1.0; the instance must not plan.
        data = instance_to_dict(instance)
        target = data[key][0] if key == "costs" else data[key]
        target[index] = cell
        with pytest.raises(ConfigurationError, match="must be numbers"):
            instance_from_dict(data)

    @pytest.mark.parametrize(
        "key,value",
        [("sizes", []), ("capacities", "5"), ("costs", []), ("costs", [[]])],
    )
    def test_rejects_malformed_number_lists(self, instance, key, value):
        data = instance_to_dict(instance)
        data[key] = value
        with pytest.raises(ConfigurationError, match="non-empty list"):
            instance_from_dict(data)

    def test_revalidates_feasibility(self, instance):
        data = instance_to_dict(instance)
        data["capacities"] = [0.0] * instance.num_servers
        with pytest.raises(Exception):
            instance_from_dict(data)


class TestScheduleRoundTrip:
    def test_dict_round_trip(self, schedule):
        restored = schedule_from_dict(schedule_to_dict(schedule))
        assert restored == schedule

    def test_file_round_trip(self, schedule, instance, tmp_path):
        path = tmp_path / "schedule.json"
        save_schedule(schedule, path)
        restored = load_schedule(path)
        assert restored == schedule
        assert restored.validate(instance).ok

    def test_compact_rows(self):
        s = Schedule([Transfer(1, 2, 3), Delete(4, 5)])
        data = schedule_to_dict(s)
        assert data["actions"] == [["T", 1, 2, 3], ["D", 4, 5]]

    def test_format_tag_checked(self):
        with pytest.raises(ConfigurationError, match="format"):
            schedule_from_dict({"format": "nope", "actions": []})

    @pytest.mark.parametrize(
        "row",
        [[], ["X", 1, 2], ["T", 1, 2], ["D", 1, 2, 3]],
    )
    def test_malformed_rows(self, row):
        with pytest.raises(ConfigurationError):
            schedule_from_dict({"format": "rtsp-schedule/1", "actions": [row]})

    def test_empty_schedule(self):
        restored = schedule_from_dict(schedule_to_dict(Schedule()))
        assert len(restored) == 0


class TestFaultPlanRoundTrip:
    def plan(self):
        return FaultPlan(
            transfer_faults=(TransferFault(3), TransferFault(7)),
            crashes=(ServerCrash(1.5, 0),),
            slowdowns=(LinkSlowdown(0.5, 1, 2, 4.0),),
            rate=0.2,
            seed=11,
            horizon=100.0,
        )

    def test_dict_round_trip(self):
        plan = self.plan()
        assert fault_plan_from_dict(fault_plan_to_dict(plan)) == plan

    def test_file_round_trip(self, tmp_path):
        plan = self.plan()
        path = tmp_path / "plan.json"
        save_fault_plan(plan, path)
        assert load_fault_plan(path) == plan

    def test_json_serialisable(self):
        json.dumps(fault_plan_to_dict(self.plan()))

    def test_generated_plan_round_trips(self, instance):
        plan = FaultPlan.generate(instance, 0.3, seed=4, horizon=50.0)
        assert fault_plan_from_dict(fault_plan_to_dict(plan)) == plan

    def test_format_tag_checked(self):
        with pytest.raises(ConfigurationError, match="format"):
            fault_plan_from_dict({"format": "nope"})

    def test_missing_key(self):
        data = fault_plan_to_dict(self.plan())
        del data["crashes"]
        with pytest.raises(ConfigurationError, match="missing"):
            fault_plan_from_dict(data)

    def test_revalidates_events(self):
        data = fault_plan_to_dict(self.plan())
        data["slowdowns"] = [[0.0, 0, 1, 0.25]]  # factor < 1 is invalid
        with pytest.raises(ConfigurationError):
            fault_plan_from_dict(data)

    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    def test_rejects_non_finite_numbers(self, token):
        # json.loads accepts the NaN and Infinity tokens.
        for key, row in (
            ("crashes", f"[[{token}, 0]]"),
            ("slowdowns", f"[[{token}, 0, 1, 2.0]]"),
            ("slowdowns", f"[[0.0, 0, 1, {token}]]"),
        ):
            data = fault_plan_to_dict(self.plan())
            data[key] = json.loads(row)
            with pytest.raises(ConfigurationError, match="finite"):
                fault_plan_from_dict(data)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("transfer_faults", [1.7, True]),
            ("transfer_faults", [2.0]),
            ("crashes", [[0.0, 2.9]]),
            ("crashes", [[0.0, True]]),
            ("crashes", [[True, 0]]),
            ("slowdowns", [[0.0, 1.5, 0, 2.0]]),
            ("slowdowns", [[0.0, 1, 2.5, 2.0]]),
            ("slowdowns", [[0.0, 1, 0, True]]),
            ("seed", 2.5),
            ("seed", True),
            ("rate", True),
            ("horizon", False),
        ],
    )
    def test_rejects_non_integral_and_boolean_numbers(self, tmp_path, key, value):
        # int() and float() would silently truncate these.
        data = fault_plan_to_dict(self.plan())
        data[key] = value
        with pytest.raises(ConfigurationError, match="malformed"):
            fault_plan_from_dict(data)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError, match="malformed"):
            load_fault_plan(path)


class TestFailureTraceRoundTrip:
    @pytest.fixture(scope="class")
    def events(self, instance):
        plan = FaultPlan(crashes=(ServerCrash(time=1.0, server=0),))
        report = execute_with_repair(instance, plan, rng=0)
        return report.events

    def test_dict_round_trip(self, events):
        restored = failure_trace_from_dict(failure_trace_to_dict(events))
        assert restored == list(events)

    def test_file_round_trip(self, events, tmp_path):
        path = tmp_path / "trace.json"
        save_failure_trace(events, path)
        assert load_failure_trace(path) == list(events)

    def test_json_serialisable(self, events):
        json.dumps(failure_trace_to_dict(events))

    def test_format_tag_checked(self):
        with pytest.raises(ConfigurationError, match="format"):
            failure_trace_from_dict({"format": "nope", "events": []})

    def test_missing_events(self):
        with pytest.raises(ConfigurationError, match="events"):
            failure_trace_from_dict({"format": "rtsp-failure-trace/1"})

    def test_malformed_row(self):
        with pytest.raises(ConfigurationError, match="5 fields"):
            failure_trace_from_dict(
                {"format": "rtsp-failure-trace/1", "events": [["ok", 0]]}
            )
