"""Command-line interface: ``python -m repro.experiments``.

Examples
--------
Run Figure 4 at CI scale and print the table::

    python -m repro.experiments --figure 4 --scale small

Regenerate every figure at the paper's scale (50 servers, 1000 objects;
budget ~an hour of CPU), writing CSVs next to the tables::

    python -m repro.experiments --figure all --scale paper --csv-dir results/

Run the robustness failure-rate sweep (fault injection + online repair)::

    python -m repro.experiments --figure robust --scale small \
        --fault-rate 0.05,0.1,0.2 --fault-seed 7 --csv-dir results/
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack
from typing import List, Optional

from repro.experiments.config import SCALES, get_scale
from repro.experiments.figures import FIGURES, get_figure
from repro.experiments.report import render_ascii_chart, render_csv, render_table
from repro.experiments.robust_sweep import (
    DEFAULT_RATES,
    render_robust_csv,
    render_robust_table,
    run_robust_sweep,
)
from repro.experiments.runner import run_figure
from repro.obs import (
    MetricsRegistry,
    Tracer,
    observed,
    profiled,
    render_event,
    write_otlp,
    write_prometheus,
)
from repro.util.errors import ConfigurationError


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for the tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the RTSP paper's evaluation figures (4-9).",
    )
    parser.add_argument(
        "--figure",
        default="all",
        help=(
            "figure to run: 4..9, fig4..fig9, 'all' (default), or "
            "'robust' for the fault-injection failure-rate sweep"
        ),
    )
    parser.add_argument(
        "--scale",
        default="small",
        choices=sorted(SCALES),
        help="experiment scale (paper = 50 servers / 1000 objects)",
    )
    parser.add_argument(
        "--reps", type=int, default=None, help="override repetitions per cell"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the base seed"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "run repetitions on N worker processes (results are "
            "bit-identical to a serial run; default serial)"
        ),
    )
    parser.add_argument(
        "--csv-dir", default=None, help="also write <figure>.csv files here"
    )
    parser.add_argument(
        "--fault-rate",
        default=None,
        help=(
            "comma-separated fault rates for --figure robust "
            f"(default {','.join(str(r) for r in DEFAULT_RATES)})"
        ),
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for fault-plan generation in --figure robust (default 0)",
    )
    parser.add_argument(
        "--chart", action="store_true", help="print ASCII charts too"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines"
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "record the run and write its spans and events as an "
            "rtsp-trace/2 JSONL trace to PATH "
            "(inspect with 'rtsp-tool trace-summary PATH')"
        ),
    )
    parser.add_argument(
        "--chrome-trace",
        default=None,
        metavar="PATH",
        help="also write a chrome://tracing / Perfetto JSON trace to PATH",
    )
    parser.add_argument(
        "--metrics-json",
        default=None,
        metavar="PATH",
        help=(
            "collect observability counters (builder scans and benefit "
            "cache, executor queues, repair rounds) and write an "
            "rtsp-metrics/1 snapshot to PATH"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the hottest functions at the end",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "render live structured heartbeat events (builder progress, "
            "repair rounds) in addition to the per-cell progress lines"
        ),
    )
    parser.add_argument(
        "--prometheus",
        default=None,
        metavar="PATH",
        help=(
            "write the run's metrics in Prometheus text exposition "
            "format to PATH (implies metrics collection)"
        ),
    )
    parser.add_argument(
        "--otlp",
        default=None,
        metavar="PATH",
        help=(
            "write the run's metrics (and spans, when tracing) as "
            "OTLP-style JSON to PATH"
        ),
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    scale = get_scale(args.scale)
    if args.seed is not None:
        from dataclasses import replace

        scale = replace(scale, base_seed=args.seed)

    progress = None if args.quiet else lambda line: print("  " + line, flush=True)

    on_event = (
        (lambda e: print("  " + render_event(e), flush=True))
        if args.progress
        else None
    )
    tracer = (
        Tracer(meta={"figure": args.figure, "scale": scale.name}, on_event=on_event)
        if (args.trace or args.chrome_trace or args.otlp or args.progress)
        else None
    )
    metrics = (
        MetricsRegistry()
        if (args.metrics_json or args.prometheus or args.otlp)
        else None
    )

    profile_report = None
    with ExitStack() as stack:
        stack.enter_context(observed(tracer=tracer, metrics=metrics))
        if args.profile:
            profile_report = stack.enter_context(profiled())
        if args.figure.lower() == "robust":
            code = _run_robust(args, scale, progress)
        else:
            code = _run_figures(args, scale, progress)
    _write_obs_artifacts(args, tracer, metrics, profile_report)
    return code


def _run_figures(args, scale, progress) -> int:
    """Handle the figure sweeps (everything except ``--figure robust``)."""
    if args.figure.lower() == "all":
        specs = [FIGURES[key] for key in sorted(FIGURES)]
    else:
        specs = [get_figure(args.figure)]

    for spec in specs:
        result = run_figure(
            spec,
            scale,
            repetitions=args.reps,
            progress=progress,
            workers=args.workers,
        )
        print()
        print(render_table(result))
        if args.chart:
            print(render_ascii_chart(result))
        if args.csv_dir:
            os.makedirs(args.csv_dir, exist_ok=True)
            path = os.path.join(args.csv_dir, f"{spec.figure_id}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render_csv(result))
            print(f"wrote {path}")
    return 0


def _write_obs_artifacts(args, tracer, metrics, profile_report) -> None:
    """Write the observability artifacts the flags asked for."""
    if tracer is not None and args.trace:
        tracer.write_jsonl(args.trace)
        print(f"wrote {args.trace}")
    if tracer is not None and args.chrome_trace:
        tracer.write_chrome(args.chrome_trace)
        print(f"wrote {args.chrome_trace}")
    if metrics is not None and args.metrics_json:
        metrics.write_json(args.metrics_json)
        print(f"wrote {args.metrics_json}")
    if metrics is not None and args.prometheus:
        write_prometheus(metrics.snapshot(), args.prometheus)
        print(f"wrote {args.prometheus}")
    if args.otlp:
        write_otlp(
            args.otlp,
            snapshot=metrics.snapshot() if metrics is not None else None,
            spans=tracer.spans if tracer is not None else None,
            meta={"figure": args.figure},
        )
        print(f"wrote {args.otlp}")
    if profile_report is not None:
        print()
        print(profile_report.text)


def _run_robust(args, scale, progress) -> int:
    """Handle ``--figure robust``: the failure-rate sweep."""
    if args.fault_rate is None:
        rates = list(DEFAULT_RATES)
    else:
        try:
            rates = [float(part) for part in args.fault_rate.split(",") if part]
        except ValueError:
            raise ConfigurationError(
                f"--fault-rate must be comma-separated floats, "
                f"got {args.fault_rate!r}"
            ) from None
    result = run_robust_sweep(
        scale,
        rates=rates,
        repetitions=args.reps,
        fault_seed=args.fault_seed,
        progress=progress,
    )
    print()
    print(render_robust_table(result))
    if args.csv_dir:
        os.makedirs(args.csv_dir, exist_ok=True)
        csv_path = os.path.join(args.csv_dir, "robust.csv")
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(render_robust_csv(result))
        json_path = os.path.join(args.csv_dir, "robust.json")
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, indent=2)
        print(f"wrote {csv_path}")
        print(f"wrote {json_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
