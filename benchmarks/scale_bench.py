"""Scaling-law benchmark: every builder across instance sizes.

Standalone (no pytest-benchmark dependency) so CI's scale-smoke job and
local runs share one entry point::

    PYTHONPATH=src python benchmarks/scale_bench.py --tier medium \
        --out benchmarks/results/BENCH_scale_current.json

Tiers: small (20x100), medium (100x1000), large (1000x10000 — GOLCF must
finish in single-digit seconds). Each builder is timed on the same
synthetic instance; below the large tier every schedule is also checked
by the strict invariant oracle, so the benchmark doubles as a validity
check of the builders' unvalidated fast path at scales the unit suites
never touch.

Output follows the ``benchmarks/conftest.py`` JSON shape
(``{"benchmarks": [{"name", "stats": {"mean", ...}}]}``) so
``benchmarks/diff_results.py`` can diff runs against the committed
``benchmarks/results/BENCH_scale.json`` baseline.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from repro.core.base import available_builders, get_builder
from repro.exact.validate import check_invariants
from repro.model.instance import RtspInstance

#: tier name -> (num_servers, num_objects, timing rounds)
TIERS = {
    "small": (20, 100, 5),
    "medium": (100, 1000, 3),
    "large": (1000, 10000, 2),
}

BUILDERS = tuple(available_builders())


def synth_instance(num_servers: int, num_objects: int, seed: int = 0):
    """A paper-shaped instance built in O(M^2 + N) — ``paper_instance``'s
    knapsack packing is itself super-linear, which would swamp the
    large-tier timings, so the benchmark draws placements directly:
    ~2 replicas per object old and new, 10% storage slack, Manhattan
    grid link costs."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 11, size=num_objects).astype(float)
    coords = rng.random((num_servers, 2)) * 100
    costs = np.ceil(
        np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
    )
    np.fill_diagonal(costs, 0.0)
    x_old = np.zeros((num_servers, num_objects), dtype=np.int8)
    x_new = np.zeros((num_servers, num_objects), dtype=np.int8)
    cols = np.arange(num_objects)
    for matrix in (x_old, x_new):
        picks = rng.integers(0, num_servers, size=(num_objects, 2))
        matrix[picks[:, 0], cols] = 1
        matrix[picks[:, 1], cols] = 1
    caps = np.maximum(x_old @ sizes, x_new @ sizes) * 1.1 + 5
    return RtspInstance.create(sizes, caps, costs, x_old, x_new)


def _time(fn, rounds: int):
    best, result = None, None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None or dt < best else best
    return best, result


def run_tier(tier: str, seed: int, verbose: bool = True):
    """Benchmark every builder for one tier."""
    m, n, rounds = TIERS[tier]
    inst = synth_instance(m, n, seed=seed)
    records = []
    for name in BUILDERS:
        elapsed, schedule = _time(
            lambda: get_builder(name).build(inst, rng=seed), rounds
        )
        if tier != "large":
            report = check_invariants(inst, schedule)
            if not report.ok:
                raise AssertionError(
                    f"invalid schedule: tier={tier} builder={name}: "
                    f"{report.summary()}"
                )
        records.append(
            {
                "name": f"scale[{tier}]/{name}",
                "stats": {"mean": elapsed},
                "tier": tier,
                "builder": name,
                "num_servers": m,
                "num_objects": n,
                "actions": len(schedule),
                "rounds": rounds,
            }
        )
        if verbose:
            print(
                f"  {tier:6s} {name:6s} {elapsed:7.3f}s  "
                f"({len(schedule)} actions)",
                flush=True,
            )
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tier",
        default="all",
        choices=sorted(TIERS) + ["all"],
        help="instance tier to run (default: all)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="instance + builder seed"
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="write results JSON here",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-builder lines"
    )
    args = parser.parse_args(argv)
    tiers = sorted(TIERS) if args.tier == "all" else [args.tier]
    benchmarks = []
    for tier in tiers:
        if not args.quiet:
            m, n, _ = TIERS[tier]
            print(f"tier {tier}: {m} servers x {n} objects", flush=True)
        benchmarks.extend(run_tier(tier, args.seed, verbose=not args.quiet))
    payload = {
        "format": "rtsp-bench-scale/1",
        "seed": args.seed,
        "benchmarks": benchmarks,
    }
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
