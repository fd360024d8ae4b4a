"""``compare``: verdicts for a change against its parent, metric by metric.

    python benchmarks/e2e compare --parent a*.json --change b*.json

Each file is the ``--out`` JSON of one run. For every workload and
end-to-end metric in BENCHMARK.json it prints both sides' medians and
quartiles and a verdict, following the rules the benchmark is judged
by:

* improved: every change run beats every parent run, or the change wins
  at least nine tenths of the seed-paired runs and the medians differ by
  more than the parent's interquartile distance;
* unresolved: otherwise, when either side's spread (interquartile
  distance over median) exceeds the metric's bound;
* regressed: the change's median is worse than the parent's by more
  than the bound;
* unchanged: anything else.

It also reports a behaviour change when a seed's ``plans_digest``
differs, and exits non-zero on any regression or a higher error rate.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

Runs = Dict[str, List[dict]]  # workload -> [{"seed", ...workload result}]


def load(paths: List[Path]) -> Runs:
    runs: Runs = defaultdict(list)
    for path in paths:
        data = json.loads(path.read_text())
        for name, result in data["workloads"].items():
            runs[name].append(dict(result, seed=data["seed"]))
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median)


def verdict(
    parent: Dict[int, float], change: Dict[int, float], bound: float, better: str
) -> str:
    """One workload x metric verdict; runs are keyed by seed."""
    sign = 1.0 if better == "higher" else -1.0
    p, c = list(parent.values()), list(change.values())
    p1, pm, p3 = quartiles(p)
    cm = statistics.median(c)
    if sign > 0:
        everywhere = min(c) > max(p)
    else:
        everywhere = max(c) < min(p)
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    gained = (
        bool(seeds) and wins >= 0.9 * len(seeds) and sign * (cm - pm) > p3 - p1
    )
    if everywhere:
        return "improved"
    if max(spread(p), spread(c)) > bound:
        return "unresolved"
    if sign * (pm - cm) / abs(pm) > bound:
        return "regressed"
    return "improved" if gained else "unchanged"


def _values(runs: List[dict], metric: str) -> Dict[int, float]:
    return {r["seed"]: r["metrics"][metric]["value"] for r in runs if r["metrics"]}


def _error_rate(runs: List[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/e2e compare")
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())["end_to_end"]
    parent, change = load(args.parent), load(args.change)
    bad = False
    header = (
        f"{'workload':<14} {'metric':<16} {'parent median [q1, q3]':>34} "
        f"{'change median [q1, q3]':>34} {'delta':>8}  verdict"
    )
    print(header)
    print("-" * len(header))
    for name in sorted(set(parent) & set(change)):
        for metric in spec:
            p = _values(parent[name], metric["name"])
            c = _values(change[name], metric["name"])
            if not p or not c:
                continue
            result = verdict(p, c, metric["bound"], metric["better"])
            bad |= result == "regressed"
            pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
            delta = (cq[1] - pq[1]) / abs(pq[1])
            print(
                f"{name:<14} {metric['name']:<16} "
                f"{pq[1]:>12.5g} [{pq[0]:>9.5g}, {pq[2]:>9.5g}] "
                f"{cq[1]:>12.5g} [{cq[0]:>9.5g}, {cq[2]:>9.5g}] "
                f"{delta:>+8.2%}  {result}"
            )
        p_err, c_err = _error_rate(parent[name]), _error_rate(change[name])
        if c_err > p_err:
            bad = True
            print(f"{name:<14} error_rate rose from {p_err:.4g} to {c_err:.4g}")
        p_plans = {r["seed"]: r["plans_digest"] for r in parent[name]}
        for run in change[name]:
            before = p_plans.get(run["seed"])
            if before is not None and before != run["plans_digest"]:
                print(
                    f"{name:<14} behaviour change: seed {run['seed']} "
                    "serves different schedules"
                )
    return 1 if bad else 0
