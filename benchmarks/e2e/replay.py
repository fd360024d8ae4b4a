"""Traced in-process replay: where a request's time goes, layer by layer.

The replay re-executes the service's path for a sample of the served
requests, with the same public calls in the same order as
``PlanningService._plan_one`` / ``_run_plan`` / ``_build_schedule``,
inside one process and under a :class:`repro.obs.Tracer`. Layers are
timed from outside: the replay opens a span around each call it makes,
and wraps the pipeline's builder and optimizers,
``repro.serve.schemas.instance_from_dict`` and
``repro.shard.planner.plan_quality`` in spans. The only spans and
counters collected from inside the program are ones it already records
(``pipeline``, ``stage``, ``plan_sharded``, ``shard.pool``,
``shard.plan``; ``builder.*``, ``nearest_index.*``, ``shard.*``).

Sharded requests call ``plan_sharded(..., validate=False)`` and then the
oracle on the stitched schedule: the work the service does inside
``plan_sharded``, made attributable. Every rebuilt schedule must be
byte-identical to the served one.
"""

from __future__ import annotations

import gc
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.serve.schemas as serve_schemas
import repro.shard.planner as shard_planner
from repro.analysis.metrics import schedule_stats
from repro.core.pipeline import Pipeline, build_pipeline
from repro.exact.validate import check_invariants
from repro.io import schedule_to_dict
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    Span,
    Tracer,
    current_tracer,
    use_metrics,
    use_tracer,
)
from repro.serve.cache import PlanCache, TopologyStore, instance_fingerprint
from repro.serve.schemas import (
    PLAN_RESPONSE_FORMAT,
    canonical_json,
    plan_request_from_dict,
)
from repro.shard import plan_sharded

from drive import BenchError
from inputs import Request

#: Which layer each span's self time is charged to. Builder and
#: optimizer spans are charged to themselves (``builder.GOLCF``, ...).
LAYER_OF_SPAN = {
    "client.encode": "client",
    "client.decode": "client",
    "schemas.parse": "schemas",
    "model.realize": "model",
    "cache.fingerprint": "cache",
    "cache.plan_cache": "cache",
    "pipeline": "pipeline",
    "stage": "pipeline",
    "exact.oracle": "exact",
    "shard.stitch_oracle": "exact",
    "analysis.stats": "analysis",
    "analysis.plan_quality": "analysis",
    "io.encode": "io",
    "shard.plan_sharded": "shard",
    "plan_sharded": "shard",
    "shard.pool": "shard",
    "shard.plan": "shard",
}
_ROOT = "request"


def _spanned(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """``fn`` inside a span on whichever tracer is active at call time."""

    def call(*args: Any, **kwargs: Any) -> Any:
        with current_tracer().span(name):
            return fn(*args, **kwargs)

    return call


def _instrumented(spec: str) -> Pipeline:
    pipeline = build_pipeline(spec)
    builder = pipeline.builder
    builder.build = _spanned(f"builder.{builder.name}", builder.build)
    for optimizer in pipeline.optimizers:
        optimizer.optimize = _spanned(
            f"optimizer.{optimizer.name}", optimizer.optimize
        )
    return pipeline


@contextmanager
def _spanned_globals(*targets: Tuple[Any, str, str]) -> Iterator[None]:
    """Wrap ``(module, function, span)`` targets in spans for the block.

    These are library functions the program calls through a module
    global. A target the module no longer has is skipped, and its metric
    then reads 0.
    """
    wrapped = []
    for module, attr, name in targets:
        original = getattr(module, attr, None)
        if original is not None:
            wrapped.append((module, attr, original))
            setattr(module, attr, _spanned(name, original))
    try:
        yield
    finally:
        for module, attr, original in wrapped:
            setattr(module, attr, original)


class Replayer:
    """Mirror of one server: its caches plus the plan path."""

    def __init__(self) -> None:
        self.tracer: Any = NULL_TRACER
        self.topologies = TopologyStore()
        self.plan_cache = PlanCache()

    def serve(self, index: int, payload: Dict[str, Any]) -> Tuple[int, int, Dict]:
        """One request, client encode to client decode.

        Returns the request and response body sizes and the decoded reply.
        """
        span = self.tracer.span
        with span(_ROOT, index=index):
            with span("client.encode"):
                body = json.dumps(payload).encode("utf-8")
            with span("schemas.parse"):
                request = plan_request_from_dict(json.loads(body))
            if request.delta is not None:
                with span("model.realize"):
                    costs = self.topologies.get(request.delta.topology)
                    instance = request.delta.realize(costs)
                topology = request.delta.topology
            else:
                instance = request.instance
                with span("cache.fingerprint"):
                    topology, _ = self.topologies.register(instance.costs)
            with span("cache.fingerprint"):
                fingerprint = instance_fingerprint(instance)
            key = PlanCache.key(
                fingerprint, request.pipeline, request.seed, request.shards
            )
            build_pipeline(request.pipeline)
            with span("cache.plan_cache"):
                reply = self.plan_cache.get(key)
            if reply is None:
                reply = self._plan(request, instance, topology, fingerprint, key)
            else:
                reply["cache_hit"] = True
            with span("io.encode"):
                response = json.dumps(reply, sort_keys=True).encode("utf-8")
            with span("client.decode"):
                decoded = json.loads(response)
        return len(body), len(response), decoded

    def _plan(self, request, instance, topology, fingerprint, key) -> Dict:
        span = self.tracer.span
        started = time.perf_counter()
        # The service looks the key up twice on a miss: once before
        # queueing the job and once when the job starts.
        with span("cache.plan_cache"):
            self.plan_cache.get(key)
        schedule = self._build(request, instance)
        if request.validate != "strict":
            raise BenchError("the replay mirrors strict validation only")
        with span("exact.oracle"):
            report = check_invariants(instance, schedule)
        if not report.ok:
            raise BenchError(f"replayed schedule fails the oracle: {report.summary()}")
        with span("analysis.stats"):
            stats = schedule_stats(schedule, instance)
        with span("io.encode"):
            encoded = schedule_to_dict(schedule)
        reply = {
            "format": PLAN_RESPONSE_FORMAT,
            "job_id": "replay",
            "pipeline": request.pipeline,
            "seed": request.seed,
            "topology": topology,
            "fingerprint": fingerprint,
            "cache_hit": False,
            "cost": stats.cost,
            "dummy_transfers": stats.num_dummy_transfers,
            "num_actions": stats.num_actions,
            "schedule": encoded,
            "elapsed_seconds": time.perf_counter() - started,
        }
        if request.shards is not None:
            reply["shards"] = request.shards
        with span("cache.plan_cache"):
            self.plan_cache.put(key, reply)
        return reply

    def _build(self, request, instance):
        pipeline = _instrumented(request.pipeline)
        if request.shards is None:
            return pipeline.run(instance, rng=request.seed)
        with self.tracer.span("shard.plan_sharded"):
            plan = plan_sharded(
                instance,
                pipeline,
                shards=request.shards,
                workers=1,
                rng=request.seed,
                mmap_costs=False,
                validate=False,
            )
        with self.tracer.span("shard.stitch_oracle"):
            report = check_invariants(instance, plan.schedule)
        if not report.ok:
            raise BenchError(f"stitched schedule fails the oracle: {report.summary()}")
        return plan.schedule

    def close(self) -> None:
        self.topologies.close()


def replay(
    name: str,
    warmup: List[Tuple[Request, Dict[str, Any]]],
    sample: List[Tuple[Request, Dict[str, Any]]],
) -> Tuple[Tracer, Dict[str, float], int, int]:
    """Replay the warm-up untraced, then ``sample`` under a tracer.

    Both are (request, served reply) pairs. Returns the tracer, the
    program's counters, and the summed request and response body sizes
    of the sample. Raises :class:`BenchError` when a rebuilt schedule
    differs from the served one.
    """
    tracer = Tracer(meta={"workload": name})
    registry = MetricsRegistry()
    replayer = Replayer()
    request_bytes = response_bytes = 0

    def check(index: int, reply: Dict[str, Any], served: Dict[str, Any]) -> None:
        if canonical_json(reply["schedule"]) != canonical_json(served["schedule"]):
            raise BenchError(
                f"{name}: replayed request {index} rebuilt a schedule that "
                "differs from the served one"
            )

    try:
        for index, (request, served) in enumerate(warmup):
            check(index, replayer.serve(index, request.payload)[2], served)
        # The harness holds every reply of the run; keep the collector
        # from walking that heap, which the server's process does not have.
        gc.collect()
        gc.freeze()
        replayer.tracer = tracer
        with use_tracer(tracer), use_metrics(registry), _spanned_globals(
            (serve_schemas, "instance_from_dict", "model.realize"),
            (shard_planner, "plan_quality", "analysis.plan_quality"),
        ):
            for index, (request, served) in enumerate(sample):
                sent, received, reply = replayer.serve(index, request.payload)
                request_bytes += sent
                response_bytes += received
                check(index, reply, served)
    finally:
        gc.unfreeze()
        replayer.close()
    return tracer, registry.counter_values(), request_bytes, response_bytes


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def _self_times(spans: List[Span]) -> Dict[int, float]:
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            child_time[span.parent_id] += span.wall_duration
    return {s.span_id: s.wall_duration - child_time[s.span_id] for s in spans}


def _layer(name: str) -> Optional[str]:
    if name.startswith(("builder.", "optimizer.")):
        return name
    return LAYER_OF_SPAN.get(name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _stage_ratios(spans: List[Span]) -> Dict[str, float]:
    """Useful-work ratios from the ``stage`` spans' annotations."""
    stages: Dict[int, List[Span]] = defaultdict(list)
    for span in sorted(spans, key=lambda s: s.seq_start):
        if span.name == "stage":
            stages[span.parent_id].append(span)
    before: Dict[str, float] = defaultdict(float)
    saved: Dict[str, float] = defaultdict(float)
    for chain in stages.values():
        for prev, cur in zip(chain, chain[1:]):
            stage = cur.attrs["stage"]
            key = "dummy_transfers" if stage == "H1" else "cost"
            before[stage] += prev.attrs[key]
            saved[stage] += prev.attrs[key] - cur.attrs[key]
    return {
        "optimizer.H1.dummies_removed_ratio": _ratio(saved["H1"], before["H1"]),
        "optimizer.H2.cost_saved_ratio": _ratio(saved["H2"], before["H2"]),
        "optimizer.OP1.cost_saved_ratio": _ratio(saved["OP1"], before["OP1"]),
    }


def layer_metrics(
    tracer: Tracer,
    counters: Dict[str, float],
    requests: int,
    request_bytes: int,
    response_bytes: int,
    served_ms: float,
) -> Tuple[Dict[str, Dict[str, float]], Dict[str, float]]:
    """Per-layer metrics (per request unless noted) and the table of mean
    self time per request (ms) of every layer that ran.

    ``served_ms`` is the mean untraced client latency of the sampled
    requests; ``trace.coverage`` is the share of it the layers explain.
    """
    spans = tracer.spans
    own = _self_times(spans)
    by_name: Dict[str, float] = defaultdict(float)
    by_layer: Dict[str, float] = defaultdict(float)
    for span in spans:
        by_name[span.name] += own[span.span_id]
        layer = _layer(span.name)
        if layer is not None:
            by_layer[layer] += own[span.span_id]
    per_request = {name: total * 1e3 / requests for name, total in by_name.items()}
    table = {layer: by_layer[layer] * 1e3 / requests for layer in sorted(by_layer)}
    parts = [s for s in spans if s.name == "shard.plan"]
    plan_spans = [s for s in spans if s.name == "plan_sharded"]
    planning = ("builder.", "optimizer.")
    plan_work = sum(ms for layer, ms in table.items() if layer.startswith(planning))
    oracle = per_request.get("exact.oracle", 0.0) + per_request.get(
        "shard.stitch_oracle", 0.0
    )
    hits = counters.get("nearest_index.cache_hits", 0.0)
    misses = counters.get("nearest_index.cache_misses", 0.0)
    sharded_ms = sum(s.wall_duration for s in spans if s.name == "shard.plan_sharded")

    def ms(name: str) -> float:
        return per_request.get(name, 0.0)

    values = {
        "wire.request_kb": (request_bytes / 1024 / requests, "KiB"),
        "wire.response_kb": (response_bytes / 1024 / requests, "KiB"),
        "client.codec_ms": (ms("client.encode") + ms("client.decode"), "ms"),
        "schemas.parse_ms": (ms("schemas.parse"), "ms"),
        "model.realize_ms": (ms("model.realize"), "ms"),
        "cache.fingerprint_ms": (ms("cache.fingerprint"), "ms"),
        "cache.plan_cache_ms": (ms("cache.plan_cache"), "ms"),
        "builder.GOLCF_ms": (ms("builder.GOLCF"), "ms"),
        "builder.transfers": (counters.get("builder.transfers", 0) / requests, "count"),
        "builder.dummy_transfers": (
            counters.get("builder.dummy_transfers", 0) / requests, "count"
        ),
        "builder.evictions": (counters.get("builder.evictions", 0) / requests, "count"),
        "nearest_index.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "optimizer.H1_ms": (ms("optimizer.H1"), "ms"),
        "optimizer.H2_ms": (ms("optimizer.H2"), "ms"),
        "optimizer.OP1_ms": (ms("optimizer.OP1"), "ms"),
    }
    values.update((k, (v, "ratio")) for k, v in _stage_ratios(spans).items())
    values.update(
        {
            "pipeline.stage_stats_ms": (ms("stage") + ms("pipeline"), "ms"),
            "exact.oracle_ms": (ms("exact.oracle"), "ms"),
            "exact.oracle_share": (_ratio(oracle, plan_work), "ratio"),
            "analysis.stats_ms": (ms("analysis.stats"), "ms"),
            "analysis.plan_quality_ms": (ms("analysis.plan_quality"), "ms"),
            "io.encode_ms": (ms("io.encode"), "ms"),
            "shard.self_ms": (table.get("shard", 0.0), "ms"),
            "shard.plan_sharded_ms": (sharded_ms * 1e3 / requests, "ms"),
            "shard.stitch_oracle_ms": (ms("shard.stitch_oracle"), "ms"),
            "shard.parts": (
                sum(s.attrs["parts"] for s in plan_spans) / requests, "count"
            ),
            "shard.part_plan_ms": (
                _ratio(sum(s.wall_duration for s in parts) * 1e3, len(parts)), "ms"
            ),
            "shard.cross_dummies": (
                counters.get("shard.cross_dummies", 0) / requests, "count"
            ),
            "trace.coverage": (sum(table.values()) / served_ms, "ratio"),
        }
    )
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, table
