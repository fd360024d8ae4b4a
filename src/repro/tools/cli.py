"""CLI for scheduling, validating and analysing JSON instances/schedules."""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack
from typing import List, Optional

from repro.analysis.bounds import (
    nearest_source_bound,
    universal_lower_bound,
    worst_case_upper_bound,
)
from repro.analysis.feasibility import analyze_feasibility
from repro.analysis.metrics import schedule_stats
from repro.core.pipeline import build_pipeline
from repro.io import load_instance, load_schedule, save_schedule
from repro.obs import load_trace, render_summary, summarize_spans, validate_trace_file
from repro.timing import bandwidths_from_costs, simulate_parallel
from repro.util.errors import RtspError


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for the tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools",
        description="Schedule, validate and analyse RTSP JSON files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="run a pipeline over an instance")
    p.add_argument("--instance", required=True, help="rtsp-instance/1 JSON file")
    p.add_argument(
        "--pipeline",
        default="GOLCF+H1+H2+OP1",
        help="pipeline spec (default: the paper's winner)",
    )
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--out", required=True, help="output rtsp-schedule/1 file")
    p.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help=(
            "plan by connected component through repro.shard, packing "
            "components into at most N parallel work units; the output "
            "schedule is identical for every N"
        ),
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="K",
        help="process-pool size for --shards (default 1: serial)",
    )
    p.add_argument(
        "--progress",
        action="store_true",
        help="render live heartbeat events (shard completions, builder "
        "progress) on the terminal",
    )
    p.add_argument(
        "--trace",
        metavar="PATH",
        help="write the run's spans and events as an rtsp-trace/2 file",
    )
    p.add_argument(
        "--prometheus",
        metavar="PATH",
        help="write run metrics in Prometheus text exposition format",
    )
    p.add_argument(
        "--otlp",
        metavar="PATH",
        help="write run metrics and trace spans as OTLP-style JSON",
    )
    p.add_argument(
        "--flight-record",
        metavar="PATH",
        help="on a crash or invariant violation, dump the trace's last "
        "records here (nothing is written on success)",
    )

    p = sub.add_parser("validate", help="replay a schedule against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument(
        "--strict",
        action="store_true",
        help="also run the independent invariant oracle (repro.exact)",
    )

    p = sub.add_parser(
        "exact", help="solve an instance to proven optimality (small sizes)"
    )
    p.add_argument("--instance", required=True)
    p.add_argument(
        "--max-nodes", type=int, default=None,
        help="search-node budget (default: solver default)",
    )
    p.add_argument(
        "--max-seconds", type=float, default=None,
        help="wall-clock budget (off by default; breaks determinism)",
    )
    p.add_argument("--out", help="write the optimal rtsp-schedule/1 file here")

    p = sub.add_parser(
        "golden",
        help="check or refresh the exact differential corpus "
        "(tests/golden/exact)",
    )
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--check", action="store_true",
        help="regenerate and byte-compare against the committed corpus",
    )
    mode.add_argument(
        "--update", action="store_true",
        help="regenerate and overwrite the committed corpus",
    )
    p.add_argument(
        "--dir", default=None,
        help="corpus directory (default: tests/golden/exact)",
    )

    p = sub.add_parser(
        "serve",
        help="run the HTTP planning service (POST /v1/plan, /v1/validate, "
        "/v1/repair; GET /v1/jobs/{id}, /healthz, /metrics)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8323, help="bind port (0: any)")
    p.add_argument(
        "--workers", type=int, default=2,
        help="planning worker threads (bounds concurrent plan CPU)",
    )
    p.add_argument(
        "--max-pending", type=int, default=64,
        help="queued-job bound; submissions beyond it get 429",
    )
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="default per-job timeout (requests may set their own)",
    )
    p.add_argument(
        "--plan-cache", type=int, default=128, metavar="N",
        help="finished plan responses kept for byte-identical replay",
    )
    p.add_argument(
        "--topology-cache", type=int, default=32, metavar="N",
        help="cost matrices kept for delta re-planning",
    )
    p.add_argument("--quiet", action="store_true", help="no startup banner")

    p = sub.add_parser("analyze", help="feasibility + cost bounds of an instance")
    p.add_argument("--instance", required=True)

    p = sub.add_parser("makespan", help="simulate parallel execution time")
    p.add_argument("--instance", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--slots", type=int, default=1,
                   help="concurrent in/out transfers per server")

    p = sub.add_parser(
        "trace-summary",
        help="summarise an rtsp-trace/2 file (from --trace) on the terminal",
    )
    p.add_argument("trace", help="rtsp-trace/2 JSONL file")
    p.add_argument(
        "--top", type=int, default=15,
        help="number of span rows to show (default 15)",
    )
    return parser


def _cmd_schedule(args) -> int:
    from repro.obs import (
        MetricsRegistry,
        Tracer,
        flight_recorded,
        observed,
        render_event,
        write_otlp,
        write_prometheus,
    )

    instance = load_instance(args.instance)
    pipeline = build_pipeline(args.pipeline)

    meta = {"tool": "schedule", "pipeline": args.pipeline}
    on_event = (lambda e: print("  " + render_event(e))) if args.progress else None
    tracer = (
        Tracer(meta=meta, on_event=on_event)
        if (args.trace or args.progress or args.otlp)
        else None
    )
    registry = MetricsRegistry() if (args.prometheus or args.otlp) else None
    try:
        with ExitStack() as stack:
            if args.flight_record:
                tracer = stack.enter_context(
                    flight_recorded(
                        args.flight_record, meta=meta, on_event=on_event
                    )
                )
            stack.enter_context(observed(tracer=tracer, metrics=registry))
            if args.shards is not None:
                from repro.shard import plan_sharded

                plan = plan_sharded(
                    instance,
                    pipeline,
                    shards=args.shards,
                    workers=args.workers,
                    rng=args.seed,
                    progress=(
                        None
                        if args.progress
                        else lambda line: print("  " + line)
                    ),
                )
                schedule = plan.schedule
                print(
                    f"sharded over {len(plan.partition.parts)} component(s) in "
                    f"{len(plan.shards)} shard(s), workers={args.workers}, "
                    f"cross-shard dummies={plan.cross_shard_dummies}"
                )
            else:
                if tracer is not None:
                    tracer.event("plan.start", parts=1, shards=0)
                schedule = pipeline.run(instance, rng=args.seed)
                if tracer is not None:
                    tracer.event("plan.done", parts=1, actions=len(schedule))
    except BaseException:
        if args.flight_record:
            print(f"flight recorder dumped to {args.flight_record}",
                  file=sys.stderr)
        raise
    stats = schedule_stats(schedule, instance)
    save_schedule(schedule, args.out)
    if args.trace and tracer is not None:
        tracer.write_jsonl(args.trace)
        print(f"wrote {args.trace}")
    if args.prometheus and registry is not None:
        write_prometheus(registry.snapshot(), args.prometheus)
        print(f"wrote {args.prometheus}")
    if args.otlp and registry is not None:
        write_otlp(
            args.otlp,
            snapshot=registry.snapshot(),
            spans=tracer.spans if tracer is not None else None,
            meta=meta,
        )
        print(f"wrote {args.otlp}")
    print(
        f"{pipeline.name}: {stats.num_actions} actions, "
        f"cost={stats.cost:,.6g}, dummy transfers={stats.num_dummy_transfers}"
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_validate(args) -> int:
    instance = load_instance(args.instance)
    schedule = load_schedule(args.schedule)
    report = schedule.validate(instance)
    if not report.ok:
        where = (
            "end state" if report.position is None else f"action {report.position}"
        )
        print(f"INVALID at {where}: {report.message}")
        return 1
    if args.strict:
        from repro.exact.validate import check_invariants

        strict_report = check_invariants(instance, schedule)
        if not strict_report.ok:
            print(f"STRICT-INVALID: {strict_report.summary()}")
            return 1
        if abs(strict_report.cost - report.cost) > 1e-9 * max(1.0, report.cost):
            print(
                "ORACLE DISAGREEMENT: model cost "
                f"{report.cost:,.6g} != independent cost "
                f"{strict_report.cost:,.6g}"
            )
            return 1
    print(
        f"VALID{' (strict)' if args.strict else ''}: cost={report.cost:,.6g}, "
        f"dummy transfers={report.dummy_transfers}, "
        f"actions={len(schedule)}"
    )
    return 0


def _cmd_exact(args) -> int:
    from repro.exact.solver import SolverBudget, solve_optimal

    instance = load_instance(args.instance)
    kwargs = {}
    if args.max_nodes is not None:
        kwargs["max_nodes"] = args.max_nodes
    if args.max_seconds is not None:
        kwargs["max_seconds"] = args.max_seconds
    budget = SolverBudget(**kwargs) if kwargs else None
    result = solve_optimal(instance, budget=budget)
    print(f"status      : {result.status}")
    print(f"cost        : {result.cost:,.6g}")
    print(f"lower bound : {result.lower_bound:,.6g}")
    print(
        f"search      : {result.stats.nodes} nodes, "
        f"{result.stats.pruned_bound} bound-pruned, "
        f"{result.stats.pruned_memo} memo-pruned, "
        f"{result.stats.elapsed_seconds:.3f}s"
    )
    if args.out:
        save_schedule(result.schedule, args.out)
        print(f"wrote {args.out}")
    return 0 if result.proved_optimal else 1


def _cmd_golden(args) -> int:
    from repro.exact.differential import (
        DEFAULT_GOLDEN_DIR,
        check_corpus,
        update_corpus,
    )

    directory = args.dir or DEFAULT_GOLDEN_DIR
    if args.update:
        for path in update_corpus(directory):
            print(f"wrote {path}")
        return 0
    problems = check_corpus(directory)
    if problems:
        print(f"golden corpus check FAILED ({len(problems)} problems):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print("golden corpus check passed (byte-identical, all optima proved)")
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import ServeConfig, run_server

    config = ServeConfig(
        workers=args.workers,
        max_pending=args.max_pending,
        default_timeout=args.timeout,
        plan_cache_entries=args.plan_cache,
        topology_entries=args.topology_cache,
    )
    return run_server(
        host=args.host, port=args.port, config=config, quiet=args.quiet
    )


def _cmd_analyze(args) -> int:
    instance = load_instance(args.instance)
    summary = analyze_feasibility(instance)
    outstanding, superfluous = instance.diff_counts()
    print(f"instance: {instance}")
    print(f"outstanding replicas : {outstanding}")
    print(f"superfluous replicas : {superfluous}")
    print(f"storage feasible     : {summary.storage_feasible}")
    print(f"dummy-free provable  : {summary.trivially_sequenceable}")
    print(f"transfer-graph cycle : {summary.transfer_cycle}")
    print(f"deadlock possible    : {summary.deadlock_possible}")
    print(f"forced dummy objects : {sorted(summary.forced_dummy_objects)}")
    print(f"cost lower bound     : {universal_lower_bound(instance):,.6g}")
    print(f"nearest-source bound : {nearest_source_bound(instance):,.6g}")
    print(f"worst-case bound     : {worst_case_upper_bound(instance):,.6g}")
    return 0


def _cmd_makespan(args) -> int:
    instance = load_instance(args.instance)
    schedule = load_schedule(args.schedule)
    report = schedule.validate(instance)
    if not report.ok:
        print(f"INVALID schedule: {report.message}")
        return 1
    bandwidths = bandwidths_from_costs(instance.costs)
    result = simulate_parallel(
        schedule, instance, bandwidths,
        out_slots=args.slots, in_slots=args.slots,
    )
    print(f"makespan       : {result.makespan:,.6g}")
    print(f"sequential time: {result.sequential_time:,.6g}")
    print(f"critical path  : {result.critical_path:,.6g}")
    print(f"speedup        : {result.speedup:.2f}x")
    return 0


def _cmd_trace_summary(args) -> int:
    problems = validate_trace_file(args.trace)
    if problems:
        print(f"INVALID trace {args.trace}:", file=sys.stderr)
        for problem in problems[:10]:
            print(f"  {problem}", file=sys.stderr)
        return 1
    header, spans, _ = load_trace(args.trace)
    print(render_summary(summarize_spans(header, spans), top=args.top))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "schedule": _cmd_schedule,
        "validate": _cmd_validate,
        "analyze": _cmd_analyze,
        "makespan": _cmd_makespan,
        "trace-summary": _cmd_trace_summary,
        "exact": _cmd_exact,
        "golden": _cmd_golden,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except (RtspError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
