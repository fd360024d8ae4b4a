"""PlanningService endpoint behaviour (no sockets involved)."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.core import build_pipeline
from repro.io import instance_to_dict, schedule_to_dict
from repro.obs.context import observed
from repro.obs.export import parse_prometheus_text, sanitize_metric_name
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serve import ServeConfig, PlanningService
from repro.serve.jobs import Job
from repro.serve.cache import topology_hash
from repro.workloads import paper_instance
from repro.serve.schemas import (
    BATCH_REQUEST_FORMAT,
    BATCH_RESPONSE_FORMAT,
    ERROR_FORMAT,
    HEALTH_FORMAT,
    JOB_FORMAT,
    PLAN_REQUEST_FORMAT,
    PLAN_RESPONSE_FORMAT,
    REPAIR_REQUEST_FORMAT,
    REPAIR_RESPONSE_FORMAT,
    VALIDATE_REQUEST_FORMAT,
    VALIDATE_RESPONSE_FORMAT,
    check_response_format,
)

PIPELINE = "GOLCF+H1"


def plan_payload(instance, **over):
    payload = {
        "format": PLAN_REQUEST_FORMAT,
        "pipeline": PIPELINE,
        "seed": 3,
        "mode": "sync",
        "instance": instance_to_dict(instance),
    }
    payload.update(over)
    return payload


def wait_terminal(service, job_id, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, payload = service.job(job_id)
        assert status == 200
        if payload["state"] in ("done", "failed", "cancelled", "timeout"):
            return payload
        time.sleep(0.01)
    raise AssertionError(f"{job_id} never reached a terminal state")


class TestPlanSync:
    def test_plan_returns_valid_response(self, service, small_instance):
        status, payload = service.plan(plan_payload(small_instance))
        assert status == 200
        check_response_format(payload, PLAN_RESPONSE_FORMAT)
        assert payload["pipeline"] == PIPELINE
        assert payload["seed"] == 3
        assert payload["cache_hit"] is False
        assert payload["topology"] == topology_hash(small_instance.costs)
        assert payload["num_actions"] == len(payload["schedule"]["actions"])

    def test_replay_hits_cache(self, service, small_instance):
        _, cold = service.plan(plan_payload(small_instance))
        status, warm = service.plan(plan_payload(small_instance))
        assert status == 200
        assert warm["cache_hit"] is True
        assert warm["schedule"] == cold["schedule"]
        assert warm["cost"] == cold["cost"]

    def test_cache_misses_across_seed_and_pipeline(
        self, service, small_instance
    ):
        service.plan(plan_payload(small_instance))
        _, other_seed = service.plan(plan_payload(small_instance, seed=4))
        assert other_seed["cache_hit"] is False
        _, other_pipe = service.plan(
            plan_payload(small_instance, pipeline="GOLCF")
        )
        assert other_pipe["cache_hit"] is False

    def test_topology_collision_does_not_cross_contaminate(
        self, service, small_instance
    ):
        """Two instances sharing a cost matrix share the topology entry
        but must not share plan-cache entries."""
        from repro.model.instance import RtspInstance

        sibling = RtspInstance.create(
            sizes=small_instance.sizes,
            capacities=small_instance.capacities,
            costs=small_instance.costs,
            x_old=small_instance.x_old,
            x_new=small_instance.x_old,  # different target placement
        )
        _, first = service.plan(plan_payload(small_instance))
        status, second = service.plan(plan_payload(sibling))
        assert status == 200
        assert second["cache_hit"] is False  # same topology, new fingerprint
        assert second["topology"] == first["topology"]
        assert second["fingerprint"] != first["fingerprint"]
        assert service.topologies.stats()["entries"] == 1

    def test_sharded_plan_matches_direct(self, service, small_instance):
        _, direct = service.plan(plan_payload(small_instance))
        status, sharded = service.plan(plan_payload(small_instance, shards=2))
        assert status == 200
        assert sharded["shards"] == 2
        assert sharded["cache_hit"] is False  # shards is part of the key
        assert sharded["schedule"] == direct["schedule"]

    def test_sharded_plan_runs_the_oracle_once(
        self, service, small_instance, monkeypatch
    ):
        import repro.exact.validate as oracle

        calls = []
        real = oracle.check_invariants

        def counting(instance, schedule):
            calls.append(len(schedule))
            return real(instance, schedule)

        monkeypatch.setattr(oracle, "check_invariants", counting)
        # Distinct seeds: the plan cache key ignores the validate mode.
        for seed, mode in ((21, "strict"), (22, "basic"), (23, None)):
            calls.clear()
            over = {"shards": 2, "seed": seed}
            if mode is not None:
                over["validate"] = mode
            status, payload = service.plan(plan_payload(small_instance, **over))
            assert status == 200, payload
            assert payload["cache_hit"] is False
            assert calls == [payload["num_actions"]], mode

    def test_inline_validation_modes(self, service, small_instance):
        for mode in ("basic", "strict"):
            status, payload = service.plan(
                plan_payload(small_instance, seed=7, validate=mode)
            )
            assert status == 200, payload


class TestPlanDelta:
    def test_delta_replans_against_cached_matrix(
        self, service, small_instance
    ):
        _, full = service.plan(plan_payload(small_instance))
        delta = {
            "topology": full["topology"],
            "sizes": small_instance.sizes.tolist(),
            "capacities": small_instance.capacities.tolist(),
            "x_old": small_instance.x_old.tolist(),
            "x_new": small_instance.x_new.tolist(),
        }
        status, replanned = service.plan(
            {
                "format": PLAN_REQUEST_FORMAT,
                "pipeline": PIPELINE,
                "seed": 3,
                "mode": "sync",
                "delta": delta,
            }
        )
        assert status == 200
        # identical placement data -> identical fingerprint -> cache hit
        assert replanned["cache_hit"] is True
        assert replanned["schedule"] == full["schedule"]

    def test_unknown_topology_404(self, service, small_instance):
        status, payload = service.plan(
            {
                "format": PLAN_REQUEST_FORMAT,
                "mode": "sync",
                "delta": {
                    "topology": "sha256:" + "0" * 64,
                    "sizes": small_instance.sizes.tolist(),
                    "capacities": small_instance.capacities.tolist(),
                    "x_old": small_instance.x_old.tolist(),
                    "x_new": small_instance.x_new.tolist(),
                },
            }
        )
        assert status == 404
        check_response_format(payload, ERROR_FORMAT)
        assert payload["error"] == "unknown-topology"


class TestPlanAsync:
    def test_async_plan_completes_via_polling(self, service, small_instance):
        status, accepted = service.plan(
            plan_payload(small_instance, mode="async")
        )
        assert status == 202
        check_response_format(accepted, JOB_FORMAT)
        final = wait_terminal(service, accepted["id"])
        assert final["state"] == "done"
        check_response_format(final["result"], PLAN_RESPONSE_FORMAT)
        names = [e["name"] for e in final["events"]]
        assert "plan.start" in names or "plan.cached" in names

    def test_event_cursor_pagination(self, service, small_instance):
        _, accepted = service.plan(plan_payload(small_instance, mode="async"))
        final = wait_terminal(service, accepted["id"])
        cursor = final["events"][1]["seq"]
        status, page = service.job(accepted["id"], since=cursor)
        assert status == 200
        assert all(e["seq"] >= cursor for e in page["events"])
        assert len(page["events"]) == len(final["events"]) - 1

    def test_cancel_unknown_job_404(self, service):
        status, payload = service.cancel_job("job-424242")
        assert status == 404
        assert payload["error"] == "unknown-job"

    def test_cancel_finished_job_409(self, service, small_instance):
        _, accepted = service.plan(plan_payload(small_instance, mode="async"))
        wait_terminal(service, accepted["id"])
        status, payload = service.cancel_job(accepted["id"])
        assert status == 409
        assert payload["cancel_accepted"] is False
        assert payload["state"] == "done"


class TestPlanErrors:
    @pytest.mark.parametrize(
        "payload",
        [
            {"format": "nonsense"},
            {"format": PLAN_REQUEST_FORMAT},  # no instance/delta
            ["not", "a", "mapping"],
            {"format": PLAN_REQUEST_FORMAT, "instance": {"format": "x"}},
        ],
    )
    def test_malformed_requests_400(self, service, payload):
        status, body = service.plan(payload)
        assert status == 400
        check_response_format(body, ERROR_FORMAT)
        assert body["error"] == "bad-request"

    def test_unknown_pipeline_400(self, service, small_instance):
        status, body = service.plan(
            plan_payload(small_instance, pipeline="MAGIC+H9")
        )
        assert status == 400
        assert body["error"] == "bad-request"

    def test_error_counter_bumped(self, service):
        before = service.metrics.counter("serve.responses.4xx").value
        service.plan({"format": "nonsense"})
        assert service.metrics.counter("serve.responses.4xx").value == (
            before + 1
        )


class TestBatch:
    def test_all_entries_succeed(self, service, small_instance, other_instance):
        status, payload = service.plan(
            {
                "format": BATCH_REQUEST_FORMAT,
                "requests": [
                    plan_payload(small_instance, seed=0),
                    plan_payload(other_instance, seed=1),
                ],
            }
        )
        assert status == 200
        check_response_format(payload, BATCH_RESPONSE_FORMAT)
        assert [entry["status"] for entry in payload["responses"]] == [200, 200]
        seeds = [e["response"]["seed"] for e in payload["responses"]]
        assert seeds == [0, 1]

    def test_mixed_results_207(self, service, small_instance):
        status, payload = service.plan(
            {
                "format": BATCH_REQUEST_FORMAT,
                "requests": [
                    plan_payload(small_instance),
                    plan_payload(small_instance, pipeline="MAGIC"),
                ],
            }
        )
        assert status == 207
        statuses = [entry["status"] for entry in payload["responses"]]
        assert statuses == [200, 400]

    def test_unparseable_batch_400(self, service, small_instance):
        status, payload = service.plan(
            {
                "format": BATCH_REQUEST_FORMAT,
                "requests": [{"format": PLAN_REQUEST_FORMAT}],
            }
        )
        assert status == 400
        check_response_format(payload, ERROR_FORMAT)


class TestValidateEndpoint:
    def test_valid_schedule_passes_strict(self, service, small_instance):
        schedule = build_pipeline(PIPELINE).run(small_instance, rng=0)
        status, payload = service.validate(
            {
                "format": VALIDATE_REQUEST_FORMAT,
                "instance": instance_to_dict(small_instance),
                "schedule": schedule_to_dict(schedule),
                "strict": True,
            }
        )
        assert status == 200
        check_response_format(payload, VALIDATE_RESPONSE_FORMAT)
        assert payload["ok"] is True
        assert payload["violations"] == []
        assert payload["num_actions"] == len(schedule)

    def test_corrupted_schedule_reports_violation(
        self, service, small_instance
    ):
        schedule = build_pipeline(PIPELINE).run(small_instance, rng=0)
        data = schedule_to_dict(schedule)
        data["actions"] = data["actions"][1:]  # drop a prefix action
        status, payload = service.validate(
            {
                "format": VALIDATE_REQUEST_FORMAT,
                "instance": instance_to_dict(small_instance),
                "schedule": data,
                "strict": False,
            }
        )
        assert status == 200
        assert payload["ok"] is False
        assert payload["violations"]
        assert payload["violations"][0]["rule"] == "model-replay"

    def test_malformed_validate_400(self, service):
        status, payload = service.validate({"format": "rtsp-validate-request/9"})
        assert status == 400
        check_response_format(payload, ERROR_FORMAT)


class TestRepairEndpoint:
    def test_repair_round_trip(self, service, small_instance):
        status, payload = service.repair(
            {
                "format": REPAIR_REQUEST_FORMAT,
                "instance": instance_to_dict(small_instance),
                "fault_plan": {
                    "format": "rtsp-fault-plan/1",
                    "transfer_faults": [0, 3],
                    "crashes": [],
                    "slowdowns": [],
                },
                "pipeline": PIPELINE,
                "seed": 1,
                "validate": "basic",
            }
        )
        assert status == 200
        check_response_format(payload, REPAIR_RESPONSE_FORMAT)
        assert payload["completed"] is True
        assert payload["rounds"] >= 1
        assert payload["applied_schedule"]["actions"]

    def test_malformed_fault_plan_400(self, service, small_instance):
        status, payload = service.repair(
            {
                "format": REPAIR_REQUEST_FORMAT,
                "instance": instance_to_dict(small_instance),
                "fault_plan": {"format": "rtsp-fault-plan/1"},
            }
        )
        assert status == 400
        check_response_format(payload, ERROR_FORMAT)

    @pytest.mark.parametrize(
        "crashes, slowdowns",
        [
            ("[[NaN, 0]]", "[]"),
            ("[]", "[[0.0, 0, 1, NaN]]"),
            ("[]", "[[0.0, 0, 1, Infinity]]"),
            # Ints beyond the double range, which float() cannot convert.
            pytest.param("[[1" + "0" * 400 + ", 0]]", "[]", id="crash-time-int1e400"),
            pytest.param(
                "[]", "[[0.0, 0, 1, 1" + "0" * 400 + "]]", id="slowdown-factor-int1e400"
            ),
        ],
    )
    def test_non_finite_fault_plan_400(
        self, service, small_instance, crashes, slowdowns
    ):
        # The HTTP layer rejects the NaN and Infinity tokens at the parse
        # (400 bad-json), but in-process callers hand floats straight in.
        status, payload = service.repair(
            {
                "format": REPAIR_REQUEST_FORMAT,
                "instance": instance_to_dict(small_instance),
                "fault_plan": {
                    "format": "rtsp-fault-plan/1",
                    "transfer_faults": [],
                    "crashes": json.loads(crashes),
                    "slowdowns": json.loads(slowdowns),
                },
                "pipeline": PIPELINE,
                "seed": 1,
            }
        )
        assert status == 400, payload
        check_response_format(payload, ERROR_FORMAT)
        assert "finite" in payload["message"]

    @staticmethod
    def repair_payload(instance, crashes=(), slowdowns=()):
        return {
            "format": REPAIR_REQUEST_FORMAT,
            "instance": instance_to_dict(instance),
            "fault_plan": {
                "format": "rtsp-fault-plan/1",
                "transfer_faults": [],
                "crashes": crashes,
                "slowdowns": slowdowns,
            },
            "pipeline": PIPELINE,
            "seed": 1,
        }

    @pytest.mark.parametrize(
        "crashes, slowdowns",
        [
            ([[0.0, 99]], []),
            ([[0.0, -1]], []),
            ([[0.0, 10]], []),  # index M is the dummy, which holds nothing
            ([], [[0.0, 99, 0, 2.0]]),  # link 0 -> 99
            ([], [[0.0, 1, -3, 2.0]]),  # link -3 -> 1
            ([], [[0.0, 10, 1, 2.0]]),  # nothing is ever sent to the dummy
            ([], [[0.0, 1, 11, 2.0]]),
        ],
    )
    def test_fault_plan_server_out_of_range_400(
        self, service, small_instance, crashes, slowdowns
    ):
        status, payload = service.repair(
            self.repair_payload(small_instance, crashes, slowdowns)
        )
        assert status == 400, payload
        check_response_format(payload, ERROR_FORMAT)
        assert payload["error"] == "bad-request"
        assert "server" in payload["message"]
        assert service.queue.counts() == {}  # rejected before queueing

    @pytest.mark.parametrize(
        "crashes, slowdowns",
        [
            # ServeClient writes a NaN crash time as null.
            ([[None, 0]], []),
            ([[0.0, None]], []),
            ([[0.0]], []),
            ([["soon", 1]], []),
            ([], [[0.0, 1, 2]]),
            ([], 5),
            # int() would truncate these to a crash on server 2, a slowdown
            # into server 1 and a factor of 1.
            ([[0.0, 2.9]], []),
            ([[0.0, True]], []),
            ([], [[0.0, 1.5, 0, 2.0]]),
            ([], [[0.0, 1, 0, True]]),
        ],
    )
    def test_malformed_fault_entries_400(
        self, service, small_instance, crashes, slowdowns
    ):
        status, payload = service.repair(
            self.repair_payload(small_instance, crashes, slowdowns)
        )
        assert status == 400, payload
        assert payload["error"] == "bad-request"
        assert "malformed" in payload["message"]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("transfer_faults", [1.7, True]),
            ("seed", 2.5),
            ("seed", True),
            ("horizon", True),
        ],
    )
    def test_malformed_fault_plan_fields_400(
        self, service, small_instance, key, value
    ):
        request = self.repair_payload(small_instance)
        request["fault_plan"][key] = value
        status, payload = service.repair(request)
        assert status == 400, payload
        assert payload["error"] == "bad-request"
        assert "malformed" in payload["message"]
        assert service.queue.counts() == {}  # rejected before queueing

    def test_fault_plan_slowdown_from_the_dummy_accepted(
        self, service, small_instance
    ):
        dummy = small_instance.dummy
        status, payload = service.repair(
            self.repair_payload(
                small_instance, [[0.0, 9]], [[0.0, 1, dummy, 2.0]]
            )
        )
        assert status == 200, payload
        check_response_format(payload, REPAIR_RESPONSE_FORMAT)


class TestSeedRange:
    """Seeds are integers in ``[0, 2**64)`` on every endpoint."""

    BAD_SEEDS = [-1, 2**64, 2**70]

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_plan_seed_out_of_range_400(self, service, small_instance, seed):
        status, payload = service.plan(plan_payload(small_instance, seed=seed))
        assert status == 400, payload
        assert payload["error"] == "bad-request"
        assert "seed" in payload["message"]

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_batch_seed_out_of_range_400(self, service, small_instance, seed):
        status, payload = service.plan(
            {
                "format": BATCH_REQUEST_FORMAT,
                "requests": [plan_payload(small_instance, seed=seed)],
            }
        )
        assert status == 400, payload
        assert payload["error"] == "bad-request"
        assert "seed" in payload["message"]

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_repair_seed_out_of_range_400(self, service, small_instance, seed):
        request = TestRepairEndpoint.repair_payload(small_instance)
        request["seed"] = seed
        status, payload = service.repair(request)
        assert status == 400, payload
        assert payload["error"] == "bad-request"
        assert "seed" in payload["message"]


class TestNonFiniteInstance:
    """NaN sizes or capacities are a bad request, not an infeasible one."""

    @pytest.mark.parametrize("field", ["sizes", "capacities"])
    def test_nan_entry_400(self, service, small_instance, field):
        request = plan_payload(small_instance)
        request["instance"][field][0] = float("nan")
        status, payload = service.plan(request)
        assert status == 400, payload
        assert payload["error"] == "bad-request"
        assert "NaN" in payload["message"]


class TestIntrospection:
    def test_healthz_counts_jobs_and_caches(self, service, small_instance):
        service.plan(plan_payload(small_instance))
        status, payload = service.healthz()
        assert status == 200
        check_response_format(payload, HEALTH_FORMAT)
        assert payload["status"] == "ok"
        assert payload["jobs"]["done"] >= 1
        assert payload["cache"]["topology"]["entries"] == 1
        assert payload["uptime_seconds"] > 0

    def test_metrics_exposition(self, service, small_instance):
        from repro.obs.export import parse_prometheus_text

        service.plan(plan_payload(small_instance))
        service.plan(plan_payload(small_instance))
        parsed = parse_prometheus_text(service.metrics_text())
        assert parsed["counters"]["rtsp_serve_requests_plan"] == 2.0
        assert parsed["counters"]["rtsp_serve_cache_plan_hits"] == 1.0
        assert parsed["histograms"]["rtsp_serve_plan_millis"]["count"] == 2


class TestDefaultTimeout:
    def test_service_level_timeout_applies(self, small_instance):
        config = ServeConfig(workers=1, default_timeout=0.0)
        with PlanningService(config) as service:
            status, payload = service.plan(plan_payload(small_instance))
            assert status == 504
            assert payload["error"] == "timeout"


def busy_instance():
    """20 servers x 300 objects: 600 GOLCF transfers, so a plan of it
    records builder heartbeats at 256 and 512 transfers."""
    return paper_instance(replicas=2, num_servers=20, num_objects=300, rng=1)


def in_process(instance, pipeline, seed):
    """The schedule, ``builder.progress`` attrs and counters of one
    in-process run under its own tracer and registry."""
    tracer, registry = Tracer(), MetricsRegistry()
    with observed(tracer, registry):
        schedule = build_pipeline(pipeline).run(instance, rng=seed)
    progress = [e.attrs for e in tracer.events if e.name == "builder.progress"]
    return schedule, progress, registry.counter_values()


def finished(service, job_id):
    """The job's snapshot once it is terminal (waits on its done event)."""
    assert service.queue.get(job_id).wait(10.0)
    return service.job(job_id)[1]


def served_counters(service):
    return parse_prometheus_text(service.metrics_text())["counters"]


def progress_of(snapshot):
    return [e["attrs"] for e in snapshot["events"] if e["name"] == "builder.progress"]


class HeartbeatGates:
    """Parks chosen plan jobs at their first builder heartbeat.

    A job whose seed has a gate sets ``reached[seed]`` when it records
    its first ``builder.progress`` and then waits, still inside its
    builder, until ``release[seed]`` is set (bounded, so a broken run
    fails instead of hanging).
    """

    def __init__(self, monkeypatch, *seeds):
        self.reached = {seed: threading.Event() for seed in seeds}
        self.release = {seed: threading.Event() for seed in seeds}
        real_record = Job.record

        def record(job, name, **attrs):
            real_record(job, name, **attrs)
            seed = job.stream.meta.get("seed")
            if name != "builder.progress" or seed not in self.reached:
                return
            if not self.reached[seed].is_set():
                self.reached[seed].set()
                self.release[seed].wait(10.0)

        monkeypatch.setattr(Job, "record", record)

    def release_all(self):
        for event in self.release.values():
            event.set()


@pytest.fixture
def gates(monkeypatch):
    made = []

    def make(*seeds):
        made.append(HeartbeatGates(monkeypatch, *seeds))
        return made[-1]

    yield make
    for gate in made:
        gate.release_all()


class TestPerJobObservability:
    """Every job runs under its own tracer and metrics registry."""

    def submit(self, service, instance, seed):
        status, job = service.plan(
            plan_payload(instance, pipeline="GOLCF", seed=seed, mode="async")
        )
        assert status == 202, job
        return job["id"]

    def test_two_jobs_in_their_builders_count_their_own_work(
        self, service, gates
    ):
        busy = busy_instance()
        gate = gates(21, 22)
        ids = {seed: self.submit(service, busy, seed) for seed in (21, 22)}
        # Both jobs are inside their builders at once.
        assert all(gate.reached[seed].wait(10.0) for seed in ids)
        gate.release_all()
        total = 0
        for seed, job_id in ids.items():
            final = finished(service, job_id)
            assert final["state"] == "done", final
            schedule, progress, counters = in_process(busy, "GOLCF", seed)
            assert final["result"]["schedule"] == schedule_to_dict(schedule)
            assert progress_of(final) == progress
            assert len(progress) == 2
            total += counters["builder.transfers"]
        assert served_counters(service)["rtsp_builder_transfers"] == total

    def test_cancelling_one_job_does_not_reach_the_other(
        self, service, gates
    ):
        busy = busy_instance()
        gate = gates(11)
        held = self.submit(service, busy, 11)
        assert gate.reached[11].wait(10.0)
        # Cancel the held job while it sits in its builder, then plan
        # another request beside it: the cancel must not reach that job,
        # and neither job's heartbeats may land in the other's stream.
        service.cancel_job(held)
        status, other = service.plan(plan_payload(busy, pipeline="GOLCF", seed=3))
        gate.release_all()
        assert status == 200, other
        expected, progress, _ = in_process(busy, "GOLCF", 3)
        assert other["schedule"] == schedule_to_dict(expected)
        _, snapshot = service.job(other["job_id"])
        assert progress_of(snapshot) == progress
        final = finished(service, held)
        assert final["state"] == "cancelled"
        assert progress_of(final) == [{"transfers": 256}]

    @pytest.mark.parametrize("beside", [False, True], ids=["alone", "beside"])
    def test_cancel_lands_at_the_next_heartbeat(self, service, gates, beside):
        busy = busy_instance()
        gate = gates(31, 32)
        if beside:
            other = self.submit(service, busy, 32)
            assert gate.reached[32].wait(10.0)
        job_id = self.submit(service, busy, 31)
        assert gate.reached[31].wait(10.0)
        service.cancel_job(job_id)
        gate.release[31].set()
        final = finished(service, job_id)
        assert final["state"] == "cancelled"
        # The job parked in its first heartbeat; the checkpoint right
        # after it raises, so the build stops at 256 of its 600 transfers.
        names = [event["name"] for event in final["events"]]
        cancel = names.index("job.cancel_requested")
        assert names[cancel + 1 :] == ["job.cancelled"]
        assert progress_of(final) == [{"transfers": 256}]
        transfers = 256
        if beside:
            gate.release[32].set()
            final = finished(service, other)
            assert final["state"] == "done", final
            expected, _, counters = in_process(busy, "GOLCF", 32)
            assert final["result"]["schedule"] == schedule_to_dict(expected)
            transfers += counters["builder.transfers"]
        # A cancelled job's registry is merged too.
        assert served_counters(service)["rtsp_builder_transfers"] == transfers

    def test_faulted_repair_reports_its_rounds(self, service):
        from repro.io import fault_plan_to_dict
        from repro.robust import FaultPlan, RepairEngine

        instance = paper_instance(
            replicas=2, num_servers=20, num_objects=100, rng=0
        )
        plan = FaultPlan.generate(instance, rate=0.1, seed=7, horizon=500.0)
        request = TestRepairEndpoint.repair_payload(instance)
        request.update(
            fault_plan=fault_plan_to_dict(plan), pipeline="GOLCF+H1+H2", seed=0
        )
        status, payload = service.repair(request)
        assert status == 200, payload
        assert payload["rounds"] > 0
        _, snapshot = service.job(payload["job_id"])
        rounds = [e for e in snapshot["events"] if e["name"] == "repair.round"]
        assert len(rounds) == payload["rounds"]
        registry = MetricsRegistry()
        with observed(Tracer(), registry):
            RepairEngine("GOLCF+H1+H2").execute(instance, plan, rng=0)
        expected = {
            sanitize_metric_name(name, "rtsp"): value
            for name, value in registry.counter_values().items()
        }
        assert expected["rtsp_repair_rounds"] == payload["rounds"]
        served = {
            name: value
            for name, value in served_counters(service).items()
            if not name.startswith("rtsp_serve_")
        }
        assert served == expected

    def test_metrics_scrapes_never_fail_or_go_backwards(self, service, gates):
        busy = busy_instance()
        gate = gates(41, 42)
        ids = [self.submit(service, busy, seed) for seed in (41, 42)]
        assert all(gate.reached[seed].wait(10.0) for seed in (41, 42))
        scraped, stop = threading.Event(), threading.Event()
        problems = []

        def scrape():
            previous = {}
            while not stop.is_set():
                try:
                    counters = served_counters(service)
                except Exception as exc:  # noqa: BLE001 - reported below
                    problems.append(repr(exc))
                    return
                problems.extend(
                    f"{name}: {value} -> {counters.get(name)}"
                    for name, value in previous.items()
                    if counters.get(name, -1) < value
                )
                previous = counters
                scraped.set()

        scraper = threading.Thread(target=scrape)
        scraper.start()
        try:
            # Scrape while both jobs sit in their builders, then while
            # they finish and merge their registries.
            assert scraped.wait(10.0)
            gate.release_all()
            for job_id in ids:
                assert finished(service, job_id)["state"] == "done"
        finally:
            stop.set()
            scraper.join(10.0)
        assert not scraper.is_alive()
        assert problems == []
        transfers = sum(
            in_process(busy, "GOLCF", seed)[2]["builder.transfers"]
            for seed in (41, 42)
        )
        assert served_counters(service)["rtsp_builder_transfers"] == transfers
