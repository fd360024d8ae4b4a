"""Measure the runtime overhead of the observability layer.

The zero-overhead-when-off contract is structural (hot paths capture
instruments once and skip them with a single ``is None`` check), but
this script puts a number on it. Three planning tiers are timed —

* ``direct``  — the reference pipeline on a paper-sized instance;
* ``builder`` — the GOLCF builder alone on a scale-bench medium
  instance (100x1000);
* ``sharded`` — ``plan_sharded`` over a shard-bench medium composed
  instance (8 blocks of 25x250);

each under three configurations, interleaved per round so clock drift
and cache warmth cancel out:

* ``disabled`` — no observability context at all (the production path);
* ``null``     — :data:`repro.obs.NULL_TRACER` explicitly installed,
  metrics off: must be indistinguishable from ``disabled``;
* ``full``     — live :class:`~repro.obs.Tracer` (spans and events) and
  :class:`~repro.obs.MetricsRegistry`, with the ``rtsp-trace/2`` lines
  and Prometheus and OTLP export of the captured telemetry *included in
  the timing*.

Reported per tier (written to ``benchmarks/results/BENCH_obs.json``):

* ``disabled_ratio`` = median(null) / median(disabled) — the cost of
  the disabled instrumentation path; the obs-smoke CI job flags > 1.05
  on the ``direct`` tier;
* ``full_ratio`` = median(full) / median(disabled) — events + export
  overhead; the budget is <= 1.10 on the medium tiers (telemetry, not
  gated in CI: hosted-runner timing is too noisy).

The output also carries a ``benchmarks`` list in the
``benchmarks/conftest.py`` shape (``{"name", "stats": {"mean"}}``) so
``benchmarks/diff_results.py`` can diff a fresh run against the
committed baseline.

Usage::

    PYTHONPATH=src python benchmarks/obs_overhead.py \
        [--tiers direct,builder,sharded] [--rounds 7] \
        [--out benchmarks/results/BENCH_obs.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from scale_bench import synth_instance

from repro.core.base import get_builder
from repro.core.pipeline import build_pipeline
from repro.obs import (
    MetricsRegistry,
    NULL_TRACER,
    Tracer,
    observed,
    use_tracer,
)
from repro.obs.export import metrics_to_otlp, prometheus_text, spans_to_otlp
from repro.shard import compose_instances, plan_sharded
from repro.workloads.regular import paper_instance

FORMAT = "rtsp-bench-obs/2"

CONFIGS = ("disabled", "null", "full")


def _tier_direct(seed):
    pipeline = build_pipeline("GOLCF+H1+H2+OP1")
    instance = paper_instance(
        replicas=2, num_servers=20, num_objects=100, rng=seed
    )
    return lambda: pipeline.run(instance, rng=seed), {
        "num_servers": 20, "num_objects": 100,
        "pipeline": "GOLCF+H1+H2+OP1",
    }


def _tier_builder(seed):
    instance = synth_instance(100, 1000, seed=seed)
    builder = get_builder("GOLCF")
    return lambda: builder.build(instance, rng=seed), {
        "num_servers": 100, "num_objects": 1000, "builder": "GOLCF",
    }


def _tier_sharded(seed):
    composed = compose_instances(
        [synth_instance(25, 250, seed=seed * 1000 + b) for b in range(8)]
    )
    pipeline = build_pipeline("GOLCF+H1")
    return (
        lambda: plan_sharded(composed, pipeline, shards=4, workers=1,
                             rng=seed),
        {"blocks": 8, "num_servers": 200, "num_objects": 2000,
         "pipeline": "GOLCF+H1"},
    )


TIERS = {
    "direct": (_tier_direct, 7),
    "builder": (_tier_builder, 5),
    "sharded": (_tier_sharded, 3),
}


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _timed_full(fn) -> float:
    """One fully-observed run: record everything, then export it."""
    tracer = Tracer()
    registry = MetricsRegistry()
    start = time.perf_counter()
    with observed(tracer=tracer, metrics=registry):
        fn()
    snapshot = registry.snapshot()
    prometheus_text(snapshot)
    metrics_to_otlp(snapshot)
    spans_to_otlp(tracer.spans)
    tracer.to_lines()
    return time.perf_counter() - start


def measure_tier(name: str, rounds: int, seed: int = 0):
    factory, default_rounds = TIERS[name]
    rounds = rounds or default_rounds
    fn, info = factory(seed)
    fn()  # warm-up (touches caches, materializes lazy state)
    samples = {config: [] for config in CONFIGS}
    for _ in range(rounds):
        samples["disabled"].append(_timed(fn))
        with use_tracer(NULL_TRACER):
            samples["null"].append(_timed(fn))
        samples["full"].append(_timed_full(fn))
    medians = {k: statistics.median(v) for k, v in samples.items()}
    return {
        "tier": name,
        "rounds": rounds,
        "median_seconds": medians,
        "disabled_ratio": medians["null"] / medians["disabled"],
        "full_ratio": medians["full"] / medians["disabled"],
        **info,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiers", default="direct,builder,sharded",
                        help="comma-separated subset of "
                             + ",".join(TIERS))
    parser.add_argument("--rounds", type=int, default=0,
                        help="override per-tier round counts")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threshold", type=float, default=1.05,
                        help="fail when the direct tier's disabled_ratio "
                             "exceeds this")
    parser.add_argument("--out", default="benchmarks/results/BENCH_obs.json")
    args = parser.parse_args(argv)

    tiers = [t.strip() for t in args.tiers.split(",") if t.strip()]
    unknown = [t for t in tiers if t not in TIERS]
    if unknown:
        parser.error(f"unknown tiers: {unknown}; choose from {sorted(TIERS)}")

    results = []
    for tier in tiers:
        result = measure_tier(tier, args.rounds, args.seed)
        results.append(result)
        print(
            f"obs[{tier}] ({result['rounds']} rounds): "
            f"disabled={result['median_seconds']['disabled'] * 1e3:.1f}ms  "
            f"disabled_ratio={result['disabled_ratio']:.3f}  "
            f"full_ratio={result['full_ratio']:.3f}"
        )

    payload = {
        "format": FORMAT,
        "seed": args.seed,
        "tiers": results,
        # diff_results.py-compatible view: one benchmark per tier/config.
        "benchmarks": [
            {
                "name": f"obs[{r['tier']}]/{config}",
                "stats": {"mean": r["median_seconds"][config]},
                "tier": r["tier"],
                "config": config,
                "rounds": r["rounds"],
            }
            for r in results
            for config in CONFIGS
        ],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")

    direct = next((r for r in results if r["tier"] == "direct"), None)
    if direct is not None and direct["disabled_ratio"] > args.threshold:
        print(
            f"FAIL: direct disabled_ratio {direct['disabled_ratio']:.3f} "
            f"> {args.threshold}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
