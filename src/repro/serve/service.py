"""Transport-independent planning service.

:class:`PlanningService` is everything behind the HTTP endpoints with
the sockets stripped away: it parses versioned payloads
(:mod:`repro.serve.schemas`), runs plans on a bounded
:class:`~repro.serve.jobs.JobQueue`, caches by topology hash
(:mod:`repro.serve.cache`) and answers ``(status, payload)`` tuples.
The HTTP layer (:mod:`repro.serve.server`) and the tests drive the
same object, so every 4xx/5xx path is testable without a socket.

Determinism contract: a served schedule is **byte-identical** to what
``build_pipeline(spec).run(instance, rng=seed)`` produces in-process
for the same ``(instance, pipeline, seed)`` — cached or not, sharded
or not (sharded planning is itself byte-identical to direct planning
per part-count, see :mod:`repro.shard`). The differential tests in
``tests/serve/`` enforce this.

Observability: every queued job, plan or repair, runs under its own
tracer and metrics registry (:meth:`PlanningService._submit`). The
tracer forwards each event (builder heartbeat, shard completion, repair
round) to the job's progress stream and then checkpoints, so a cancel
or timeout lands at the job's next event. The registry is merged into
the service's when the job ends, whatever its state; the merge keeps a
gauge's maximum, not its last value.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

import orjson

from repro.analysis.metrics import schedule_stats
from repro.core.pipeline import build_pipeline
from repro.io import fault_plan_from_dict, schedule_from_dict, schedule_to_dict
from repro.model.instance import RtspInstance
from repro.obs.context import observed
from repro.obs.export import prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Event, Tracer
from repro.serve.cache import (
    PlanCache,
    TopologyStore,
    instance_fingerprint,
)
from repro.serve.jobs import (
    DONE,
    Job,
    JobCancelled,
    JobContext,
    JobNotFound,
    JobQueue,
    JobTimeout,
    QueueFull,
)
from repro.serve.schemas import (
    BATCH_REQUEST_FORMAT,
    BATCH_RESPONSE_FORMAT,
    HEALTH_FORMAT,
    PLAN_RESPONSE_FORMAT,
    REPAIR_RESPONSE_FORMAT,
    VALIDATE_RESPONSE_FORMAT,
    PlanRequest,
    SchemaError,
    error_payload,
    plan_request_from_dict,
    repair_request_from_dict,
    validate_request_from_dict,
    wire_json,
)
from repro.util.errors import (
    ConfigurationError,
    InfeasibleInstanceError,
    InvalidActionError,
    InvalidScheduleError,
    RepairExhaustedError,
    RtspError,
)

__all__ = ["ServeConfig", "PlanningService", "UnknownTopologyError"]


class UnknownTopologyError(RtspError):
    """A delta referenced a topology hash the server does not hold."""


@dataclass(frozen=True)
class ServeConfig:
    """Tunables for one :class:`PlanningService`."""

    #: Worker threads draining the job queue (bounds plan concurrency).
    workers: int = 2
    #: Back-pressure bound: submissions beyond this return 429.
    max_pending: int = 64
    #: Finished plan responses kept for replay.
    plan_cache_entries: int = 128
    #: Cost matrices kept for delta re-planning.
    topology_entries: int = 32
    #: Default per-job timeout (seconds); ``None`` means unbounded.
    default_timeout: Optional[float] = None
    #: Reject request bodies larger than this (transport-enforced).
    max_body_bytes: int = 64 * 1024 * 1024


#: One plan reply: a sync cache hit's wire body, or a payload dict.
_Reply = Union[bytes, Dict[str, Any]]


def _as_payload(reply: _Reply) -> Dict[str, Any]:
    """``reply`` as a dict, parsing a cache hit's wire body."""
    return orjson.loads(reply) if isinstance(reply, bytes) else reply


def _status_for(exc: BaseException) -> Tuple[int, str]:
    """Map an exception to ``(http status, stable error code)``."""
    if isinstance(exc, SchemaError):
        return 400, "bad-request"
    if isinstance(exc, UnknownTopologyError):
        return 404, "unknown-topology"
    if isinstance(exc, JobNotFound):
        return 404, "unknown-job"
    if isinstance(exc, QueueFull):
        return 429, "queue-full"
    if isinstance(exc, JobTimeout):
        return 504, "timeout"
    if isinstance(exc, JobCancelled):
        return 409, "cancelled"
    if isinstance(exc, InfeasibleInstanceError):
        return 422, "infeasible-instance"
    if isinstance(exc, (InvalidScheduleError, InvalidActionError)):
        return 422, "invalid-schedule"
    if isinstance(exc, RepairExhaustedError):
        return 422, "repair-exhausted"
    if isinstance(exc, ConfigurationError):
        return 400, "bad-request"
    if isinstance(exc, RtspError):
        return 422, "unprocessable"
    return 500, "internal-error"


class PlanningService:
    """The planning endpoints as plain methods returning (status, payload)."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.queue = JobQueue(
            workers=self.config.workers, max_pending=self.config.max_pending
        )
        self.plan_cache = PlanCache(max_entries=self.config.plan_cache_entries)
        self.topologies = TopologyStore(max_entries=self.config.topology_entries)
        self.metrics = MetricsRegistry()
        self._mlock = threading.Lock()
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the queue down and drop cached matrices."""
        self.queue.shutdown()
        self.topologies.close()

    def __enter__(self) -> "PlanningService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # metrics and jobs (the service registry is written and read only
    # under _mlock; jobs record into their own registries)
    # ------------------------------------------------------------------
    def _count(self, name: str, n: float = 1) -> None:
        with self._mlock:
            self.metrics.counter(name).inc(n)

    def _observe_ms(self, name: str, seconds: float) -> None:
        with self._mlock:
            self.metrics.histogram(name).observe(seconds * 1000.0)

    def _submit(
        self,
        work: Callable[[JobContext], Dict[str, Any]],
        kind: str,
        timeout_seconds: Optional[float],
        meta: Dict[str, Any],
    ) -> Job:
        """Queue ``work`` under its own observability context (see the
        module docstring)."""

        def run(ctx: JobContext) -> Dict[str, Any]:
            def forward(event: Event) -> None:
                ctx.job.record(event.name, **event.attrs)
                ctx.check()

            registry = MetricsRegistry()
            try:
                with observed(
                    Tracer(meta={"job": ctx.job.id}, on_event=forward), registry
                ):
                    return work(ctx)
            finally:
                snapshot = registry.snapshot()
                with self._mlock:
                    self.metrics.merge(snapshot)

        job = self.queue.submit(
            run, kind=kind, timeout_seconds=timeout_seconds, meta=meta
        )
        self._count("serve.jobs.submitted")
        return job

    # ------------------------------------------------------------------
    # POST /v1/plan
    # ------------------------------------------------------------------
    def plan(self, data: Any) -> Tuple[int, Dict[str, Any]]:
        """Handle one plan (or batch) submission."""
        status, reply = self._plan(data)
        return status, _as_payload(reply)

    def plan_body(
        self, data: Any, digest: Optional[bytes] = None
    ) -> Tuple[int, bytes]:
        """:meth:`plan` with the response as its HTTP body.

        A sync plan-cache hit is the stored body from
        :meth:`PlanCache.hit_body`, neither parsed nor re-encoded. Every
        other response is :func:`wire_json` of what :meth:`plan` returns.
        ``digest`` is the sha256 of the body ``data`` was parsed from: a
        single sync request answered 200 is remembered under it for
        :meth:`plan_digest_hit`.
        """
        status, reply = self._plan(data, digest)
        return status, reply if isinstance(reply, bytes) else wire_json(reply)

    def plan_digest_hit(
        self, digest: bytes, started: float
    ) -> Optional[Tuple[int, bytes]]:
        """The plan-cache hit for a request body with sha256 ``digest``,
        or ``None`` (counting nothing) if the body must be parsed.

        A body :meth:`plan_body` answered 200 parses to the same plan key
        again, so while that plan and its topology stay cached, the
        reply is :meth:`PlanCache.hit_body`'s, counted as the parsed
        body's hit would be, plus ``serve.cache.plan.body_hits``. Its
        ``elapsed_seconds`` runs from ``started``, a
        ``time.perf_counter()`` reading.
        """
        elapsed = time.perf_counter() - started
        body = self.plan_cache.hit_digest(digest, elapsed, self.topologies)
        if body is None:
            return None
        self._count("serve.requests.plan")
        self._count("serve.cache.plan.hits")
        self._count("serve.cache.plan.body_hits")
        self._observe_ms("serve.plan.millis", elapsed)
        return 200, body

    def _plan(
        self, data: Any, digest: Optional[bytes] = None
    ) -> Tuple[int, _Reply]:
        self._count("serve.requests.plan")
        try:
            if (
                isinstance(data, Mapping)
                and data.get("format") == BATCH_REQUEST_FORMAT
            ):
                return self._plan_batch(data)
            request = plan_request_from_dict(data)
            return self._plan_one(request, digest)
        except BaseException as exc:  # noqa: BLE001 - mapped to a status
            return self._error(exc)

    def _plan_batch(self, data: Mapping[str, Any]) -> Tuple[int, Dict[str, Any]]:
        from repro.serve.schemas import batch_request_from_dict

        requests = batch_request_from_dict(data)
        responses: List[Dict[str, Any]] = []
        worst = 200
        for request in requests:
            try:
                status, reply = self._plan_one(request)
            except BaseException as exc:  # noqa: BLE001 - mapped per entry
                status, reply = self._error(exc)
            responses.append({"status": status, "response": _as_payload(reply)})
            worst = max(worst, status)
        # The batch itself succeeded if it parsed; per-entry statuses
        # ride inside. 200 iff every entry planned.
        status = 200 if worst < 300 else 207
        return status, {"format": BATCH_RESPONSE_FORMAT, "responses": responses}

    def _plan_one(
        self, request: PlanRequest, digest: Optional[bytes] = None
    ) -> Tuple[int, _Reply]:
        """Plan one request; a sync cache hit comes back as its wire
        body, and every other reply as a dict. A 200 remembers
        ``digest``, the sha256 of the request's body, for its plan."""
        started = time.perf_counter()
        instance, topo_key = self._resolve_instance(request)
        fingerprint = instance_fingerprint(instance)
        key = PlanCache.key(
            fingerprint, request.pipeline, request.seed, request.shards
        )
        # Fail fast on a bad pipeline spec (400) before queueing work.
        build_pipeline(request.pipeline)

        def planned(reply: _Reply) -> Tuple[int, _Reply]:
            if digest is not None:
                self.plan_cache.add_body(
                    digest, key, topo_key, request.delta is not None
                )
            return 200, reply

        if request.mode == "sync":
            cached = self._cache_lookup(key, started)
            if cached is not None:
                return planned(cached)
        timeout = (
            request.timeout_seconds
            if request.timeout_seconds is not None
            else self.config.default_timeout
        )
        job = self._submit(
            lambda ctx: self._run_plan(
                ctx, request, instance, fingerprint, topo_key, key
            ),
            kind="plan",
            timeout_seconds=timeout,
            meta={"pipeline": request.pipeline, "seed": request.seed},
        )
        if request.mode == "async":
            return 202, job.snapshot()
        job.wait()
        self._count(f"serve.jobs.{job.state}")
        if job.state == DONE:
            self._observe_ms(
                "serve.plan.millis", time.perf_counter() - started
            )
            return planned(job.result)
        assert job.error is not None
        return self._error(job.error)

    def _cache_lookup(self, key: Tuple, started: float) -> Optional[bytes]:
        """A sync hit's wire body, or ``None`` on a miss."""
        elapsed = time.perf_counter() - started
        body = self.plan_cache.hit_body(key, elapsed)
        if body is None:
            self._count("serve.cache.plan.misses")
            return None
        self._count("serve.cache.plan.hits")
        self._observe_ms("serve.plan.millis", elapsed)
        return body

    def _resolve_instance(
        self, request: PlanRequest
    ) -> Tuple[RtspInstance, str]:
        """The full instance plus its (registered) topology hash."""
        if request.instance is not None:
            instance = request.instance
            topo_key, _ = self.topologies.register(instance.costs)
            return instance, topo_key
        assert request.delta is not None
        costs = self.topologies.get(request.delta.topology)
        if costs is None:
            raise UnknownTopologyError(
                f"no cached cost matrix for {request.delta.topology!r}; "
                "submit a full instance first"
            )
        instance = request.delta.realize(costs)
        return instance, request.delta.topology

    def _run_plan(
        self,
        ctx: JobContext,
        request: PlanRequest,
        instance: RtspInstance,
        fingerprint: str,
        topo_key: str,
        key: Tuple,
    ) -> Dict[str, Any]:
        started = time.perf_counter()
        # Async submissions race sync ones for the same key; replay a
        # response that landed while this job sat in the queue.
        payload = self.plan_cache.get(key)
        if payload is not None:
            self._count("serve.cache.plan.hits")
            ctx.emit("plan.cached", fingerprint=fingerprint)
            payload["cache_hit"] = True
            payload["elapsed_seconds"] = time.perf_counter() - started
            return payload
        self._count("serve.cache.plan.misses")
        ctx.emit(
            "plan.start",
            pipeline=request.pipeline,
            seed=request.seed,
            servers=instance.num_servers,
            objects=instance.num_objects,
            shards=request.shards or 0,
        )
        schedule = self._build_schedule(request, instance)
        ctx.check()
        self._validate_schedule(request.validate, instance, schedule)
        stats = schedule_stats(schedule, instance)
        elapsed = time.perf_counter() - started
        ctx.emit(
            "plan.done",
            actions=stats.num_actions,
            cost=stats.cost,
            dummy_transfers=stats.num_dummy_transfers,
        )
        payload = {
            "format": PLAN_RESPONSE_FORMAT,
            "job_id": ctx.job.id,
            "pipeline": request.pipeline,
            "seed": request.seed,
            "topology": topo_key,
            "fingerprint": fingerprint,
            "cache_hit": False,
            "cost": stats.cost,
            "dummy_transfers": stats.num_dummy_transfers,
            "num_actions": stats.num_actions,
            "schedule": schedule_to_dict(schedule),
            "elapsed_seconds": elapsed,
        }
        if request.shards is not None:
            payload["shards"] = request.shards
        self.plan_cache.put(key, payload)
        return payload

    @staticmethod
    def _build_schedule(request: PlanRequest, instance: RtspInstance):
        if request.shards is not None:
            from repro.shard import plan_sharded

            # A strict request runs the oracle in _validate_schedule;
            # skip plan_sharded's own pass.
            plan = plan_sharded(
                instance,
                request.pipeline,
                shards=request.shards,
                workers=1,
                rng=request.seed,
                validate=request.validate != "strict",
                mmap_costs=False,
            )
            return plan.schedule
        return build_pipeline(request.pipeline).run(instance, rng=request.seed)

    @staticmethod
    def _validate_schedule(mode: Optional[str], instance, schedule) -> None:
        if mode is None:
            return
        if mode == "basic":
            report = schedule.validate(instance)
            if not report.ok:
                raise InvalidScheduleError(report.message, report.position)
            return
        from repro.exact.validate import check_invariants

        strict = check_invariants(instance, schedule)
        if not strict.ok:
            raise InvalidScheduleError(strict.summary())

    # ------------------------------------------------------------------
    # POST /v1/validate
    # ------------------------------------------------------------------
    def validate(self, data: Any) -> Tuple[int, Dict[str, Any]]:
        """Replay a schedule against an instance; optionally strict."""
        self._count("serve.requests.validate")
        try:
            request = validate_request_from_dict(data)
            schedule = schedule_from_dict(request.schedule)
        except BaseException as exc:  # noqa: BLE001 - mapped to a status
            return self._error(exc)
        report = schedule.validate(request.instance)
        violations: List[Dict[str, Any]] = []
        if not report.ok:
            violations.append(
                {
                    "rule": "model-replay",
                    "position": report.position,
                    "message": report.message,
                }
            )
        payload: Dict[str, Any] = {
            "format": VALIDATE_RESPONSE_FORMAT,
            "ok": report.ok,
            "strict": request.strict,
            "cost": report.cost,
            "dummy_transfers": report.dummy_transfers,
            "num_actions": len(schedule),
            "violations": violations,
        }
        if request.strict and report.ok:
            from repro.exact.validate import check_invariants

            strict_report = check_invariants(request.instance, schedule)
            payload["ok"] = strict_report.ok
            payload["cost"] = strict_report.cost
            payload["dummy_transfers"] = strict_report.dummy_transfers
            payload["violations"] = [
                {
                    "rule": v.rule,
                    "position": v.position,
                    "message": v.message,
                }
                for v in strict_report.violations
            ]
        return 200, payload

    # ------------------------------------------------------------------
    # POST /v1/repair
    # ------------------------------------------------------------------
    def repair(self, data: Any) -> Tuple[int, Dict[str, Any]]:
        """Execute a faulted transition with online repair."""
        self._count("serve.requests.repair")
        try:
            request = repair_request_from_dict(data)
            plan = fault_plan_from_dict(request.fault_plan)
            plan.check_servers(request.instance.num_servers)
            build_pipeline(request.pipeline)
        except BaseException as exc:  # noqa: BLE001 - mapped to a status
            return self._error(exc)
        job = None
        try:
            job = self._submit(
                lambda ctx: self._run_repair(ctx, request, plan),
                kind="repair",
                timeout_seconds=self.config.default_timeout,
                meta={"pipeline": request.pipeline},
            )
            job.wait()
        except BaseException as exc:  # noqa: BLE001 - mapped to a status
            return self._error(exc)
        self._count(f"serve.jobs.{job.state}")
        if job.state == DONE:
            return 200, job.result
        assert job.error is not None
        return self._error(job.error)

    def _run_repair(self, ctx: JobContext, request, plan) -> Dict[str, Any]:
        from repro.robust import RepairEngine

        ctx.emit("repair.start", pipeline=request.pipeline, seed=request.seed)
        engine = RepairEngine(request.pipeline)
        validate = request.validate if request.validate is not None else False
        report = engine.execute(
            request.instance, plan, rng=request.seed, validate=validate
        )
        ctx.emit(
            "repair.done", rounds=report.rounds, completed=report.completed
        )
        return {
            "format": REPAIR_RESPONSE_FORMAT,
            "job_id": ctx.job.id,
            "completed": report.completed,
            "rounds": report.rounds,
            "replans": report.replans,
            "makespan": report.makespan,
            "total_cost": report.total_cost,
            "wasted_cost": report.wasted_cost,
            "dummy_transfers": report.dummy_transfers,
            "fault_free_cost": report.fault_free_cost,
            "fault_free_makespan": report.fault_free_makespan,
            "backoff_total": report.backoff_total,
            "applied_schedule": schedule_to_dict(report.applied_schedule()),
        }

    # ------------------------------------------------------------------
    # GET /v1/jobs/{id} and DELETE /v1/jobs/{id}
    # ------------------------------------------------------------------
    def job(self, job_id: str, since: int = 0) -> Tuple[int, Dict[str, Any]]:
        """The ``rtsp-job/1`` status view with an event cursor."""
        self._count("serve.requests.jobs")
        try:
            job = self.queue.get(job_id)
        except JobNotFound as exc:
            return self._error(exc)
        return 200, job.snapshot(since=since)

    def cancel_job(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        """Request cancellation; returns the (possibly updated) view."""
        self._count("serve.requests.jobs")
        try:
            job = self.queue.get(job_id)
            accepted = self.queue.cancel(job_id)
        except JobNotFound as exc:
            return self._error(exc)
        payload = job.snapshot()
        payload["cancel_accepted"] = accepted
        return (202 if accepted else 409), payload

    # ------------------------------------------------------------------
    # GET /healthz and GET /metrics
    # ------------------------------------------------------------------
    def healthz(self) -> Tuple[int, Dict[str, Any]]:
        """Liveness plus queue/cache occupancy."""
        self._count("serve.requests.health")
        return 200, {
            "format": HEALTH_FORMAT,
            "status": "ok",
            "jobs": self.queue.counts(),
            "cache": {
                "plan": self.plan_cache.stats(),
                "topology": self.topologies.stats(),
            },
            "uptime_seconds": time.monotonic() - self._started,
        }

    def metrics_text(self) -> str:
        """Prometheus text exposition of the service registry."""
        self._count("serve.requests.metrics")
        with self._mlock:
            snapshot = self.metrics.snapshot()
        return prometheus_text(snapshot)

    # ------------------------------------------------------------------
    # shared error path
    # ------------------------------------------------------------------
    def _error(self, exc: BaseException) -> Tuple[int, Dict[str, Any]]:
        status, code = _status_for(exc)
        if status >= 500:
            self._count("serve.responses.5xx")
        else:
            self._count("serve.responses.4xx")
        return status, error_payload(status, code, str(exc))
