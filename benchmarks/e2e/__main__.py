"""End-to-end benchmark of the planning service, with a per-layer breakdown.

    python3 benchmarks/e2e --out run.json
    python3 benchmarks/e2e --workload paper-tight --seed 3 --seconds 15 --trace 1
    python3 benchmarks/e2e --smoke
    python3 benchmarks/e2e compare --parent a*.json --change b*.json

Boots ``python -m repro.tools serve`` once per round, drives each
workload closed-loop through ``ServeClient``, checks every reply, and
prints every metric by name with its unit. ``--trace 1`` then replays a
sample of the requests in-process under a tracer and reports per-layer
metrics instead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"no src/repro under {ROOT}: run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))
# The flat-core switch must come from the instance size alone, in the
# traced replay and in the servers, which inherit this environment.
os.environ.pop("RTSP_FLAT", None)

import numpy as np  # noqa: E402

import compare  # noqa: E402
from drive import BenchError, Tally, end_to_end, percentile, run_round  # noqa: E402
from inputs import WORKLOADS, BodyDigest, Workload  # noqa: E402
from replay import layer_metrics, replay  # noqa: E402
from repro.obs import Tracer  # noqa: E402

#: Rounds per run; each boots its own server, so also the set-up samples.
ROUNDS = 5
DEFAULT_SECONDS = 15
#: Fewest latency samples a run pools: a p90 then has ten beyond it.
MIN_SAMPLES = 100
SMOKE_REQUESTS = 3
#: Seed-0 input digests per run configuration, to catch generator drift.
DIGESTS = Path(__file__).with_name("digests.json")


def requests_per_client(workload: Workload, seconds: int, smoke: bool) -> int:
    if smoke:
        return -(-SMOKE_REQUESTS // workload.clients)
    sized = round(seconds * workload.rate / ROUNDS / workload.clients)
    return max(sized, -(-MIN_SAMPLES // (ROUNDS * workload.clients)))


def run_workload(
    workload: Workload, seed: int, seconds: int, smoke: bool, trace: bool
) -> dict:
    stream = workload.stream(seed)
    rounds = 1 if smoke else ROUNDS
    per_client = requests_per_client(workload, seconds, smoke)
    inputs = BodyDigest()
    inputs.update(stream.warmup)
    tally = Tally()
    for index in range(rounds):
        requests = stream.round(index, per_client)
        if not workload.cache_hit:
            for client in requests:
                inputs.update(client)
        rnd = run_round(str(ROOT), workload, stream, requests)
        tally.add_round(workload, stream, rnd)
        if index == 0:
            warmup_served = rnd.warmup
            traced = rnd.replies[0][: workload.sample]
            sample = [(request, payload) for request, _, payload, _ in traced]
            sample_ms = sum(latency for *_, latency in traced) * 1e3 / len(traced)
    latencies = tally.latencies_ms
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures[:5],
        "rounds": rounds,
        "clients": workload.clients,
        "requests_per_client": per_client,
        "latency_samples": len(latencies),
        "inputs_digest": inputs.hexdigest(),
        "plans_digest": "sha256:" + tally.plans.hexdigest(),
        "metrics": end_to_end(tally) if latencies else {},
        # Printed, not bounded: on a shared host the tail measures the
        # host's noise more than the program (see README.md).
        "latency_p90_ms": percentile(latencies, 90) if latencies else None,
        "per_round": tally.rounds,
    }
    if not (trace and result["correct"]):
        return result
    try:
        tracer, counters, sent, received = replay(
            workload.name, list(zip(stream.warmup, warmup_served)), sample
        )
    except BenchError as exc:
        result["correct"] = False
        result["failures"].append(str(exc))
        return result
    layers, table = layer_metrics(
        tracer, counters, len(sample), sent, received, sample_ms
    )
    overheads = tally.overheads
    layers["serve.overhead_ms"] = {
        "value": sum(overheads) / len(overheads) * 1e3, "unit": "ms"
    }
    lookups = tally.cache_hits + tally.cache_misses
    layers["serve.cache_hit_ratio"] = {
        "value": tally.cache_hits / lookups if lookups else 0.0, "unit": "ratio"
    }
    layers["plan.dummy_ratio"] = {
        "value": tally.dummies / tally.transfers if tally.transfers else 0.0,
        "unit": "ratio",
    }
    result.update(
        traced_requests=len(sample),
        traced_served_ms=sample_ms,
        layers=layers,
        self_ms=table,
        counters=counters,
        tracer=tracer,
    )
    return result


def check_digests(results: dict, seed: int, seconds: int, smoke: bool) -> None:
    """Abort when seed-0 inputs differ from the recorded digests."""
    if seed != 0 or not DIGESTS.exists():
        return
    key = "smoke" if smoke else f"seconds={seconds}"
    expected = json.loads(DIGESTS.read_text()).get(key, {})
    for name, result in results.items():
        want = expected.get(name)
        if want is not None and want != result["inputs_digest"]:
            raise BenchError(
                f"{name}: seed-0 inputs changed ({result['inputs_digest']} != "
                f"{want} in {DIGESTS.name}); the generators drifted"
            )


def _fmt(metric: dict) -> str:
    return f"{metric['value']:>14.6g} {metric['unit']}"


def report(name: str, seed: int, result: dict) -> None:
    print(
        f"{name}: seed {seed}, {result['rounds']} round(s) x "
        f"{result['clients']} client(s) x {result['requests_per_client']} "
        f"request(s); {result['failed']}/{result['attempted']} failed"
    )
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    for metric, value in result["metrics"].items():
        print(f"  {metric:<38}{_fmt(value)}")
    if result["latency_p90_ms"] is not None:
        p90 = {"value": result["latency_p90_ms"], "unit": "ms"}
        n = result["latency_samples"]
        print(f"  {'latency_p90_ms (no bound)':<38}{_fmt(p90)}  (n={n})")
    if "layers" in result:
        print(f"  per layer, traced replay of {result['traced_requests']} request(s):")
        for metric, value in sorted(result["layers"].items()):
            print(f"    {metric:<36}{_fmt(value)}")
        served = result["traced_served_ms"]
        print(
            f"  self time by layer (ms per request; share of the {served:.1f} ms "
            "these requests took when served):"
        )
        for layer, ms in sorted(result["self_ms"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<24}{ms:>12.3f} {ms / served:>8.1%}")


def environment() -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "machine": platform.machine(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--seconds", type=int, default=DEFAULT_SECONDS,
        help="measured seconds per workload the request counts are sized for",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: also replay a sample under a tracer and report per-layer metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="1 round of 3 requests per workload, traced, every check",
    )
    parser.add_argument("--out", type=Path, help="write the full results JSON here")
    parser.add_argument(
        "--trace-out", type=Path,
        help="write the replay's spans here as rtsp-trace/1 (implies tracing)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    args = parse_args(argv)
    trace = bool(args.trace or args.smoke or args.trace_out)
    names = args.workload or list(WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(
                WORKLOADS[name], args.seed, args.seconds, args.smoke, trace
            )
            report(name, args.seed, results[name])
        check_digests(results, args.seed, args.seconds, args.smoke)
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    tracers = [r.pop("tracer") for r in results.values() if "tracer" in r]
    if args.trace_out is not None:
        merged = Tracer(meta={"benchmark": "e2e", "seed": args.seed})
        for tracer in tracers:
            merged.adopt(tracer.spans)
        merged.write_jsonl(str(args.trace_out))
    if args.out is not None:
        args.out.write_text(
            json.dumps(
                {
                    "format": "rtsp-e2e-bench/1",
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "smoke": args.smoke,
                    "trace": trace,
                    "env": environment(),
                    "workloads": results,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
    key = "layers" if args.trace else "metrics"
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}/"
        for metric, value in result.get(key, {}).items():
            metrics[prefix + metric] = value
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
