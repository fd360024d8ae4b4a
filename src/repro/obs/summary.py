"""Human-readable summaries of recorded traces.

Backs the ``repro tools trace-summary`` subcommand: aggregates a span
list by name (count, total/mean wall time) and rolls every span's
logical counters into one table, so a single trace file answers "where
did the time go" and "what did the algorithms actually do".

Merged shard traces (from :func:`repro.shard.plan_sharded`) get two
extra sections: a per-shard breakdown keyed by the ``part`` attribute
of the ``shard.plan`` spans (every descendant span is attributed to its
owning shard), and the plan-quality gauges the planner annotates onto
the ``plan_sharded`` root span (cost gap vs the residual lower bound,
dummy-traffic ratio, LPT imbalance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.trace import Span

__all__ = [
    "ShardRow",
    "SpanAggregate",
    "TraceSummary",
    "summarize_spans",
    "render_summary",
]


@dataclass
class SpanAggregate:
    """Aggregate over every span sharing one name."""

    name: str
    count: int = 0
    total_wall: float = 0.0
    max_wall: float = 0.0

    @property
    def mean_wall(self) -> float:
        return self.total_wall / self.count if self.count else 0.0


@dataclass
class ShardRow:
    """Aggregate over one shard's span subtree in a merged trace."""

    part: int
    servers: int = 0
    spans: int = 0
    wall: float = 0.0


@dataclass
class TraceSummary:
    """Aggregated view of one trace."""

    header: Dict[str, Any]
    spans: List[SpanAggregate] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    shards: List[ShardRow] = field(default_factory=list)
    quality: Dict[str, float] = field(default_factory=dict)


#: Gauges the sharded planner annotates onto its ``plan_sharded`` span.
_QUALITY_KEYS = ("cost", "cost_gap", "dummy_traffic_ratio", "lpt_imbalance")


def _owning_part(
    span: Span, by_id: Dict[int, Span]
) -> Optional[int]:
    """The ``part`` of the nearest enclosing ``shard.plan`` span, if any."""
    current: Optional[Span] = span
    while current is not None:
        if current.name == "shard.plan" and "part" in current.attrs:
            part = current.attrs["part"]
            return int(part) if isinstance(part, (int, float)) else None
        parent = current.parent_id
        current = by_id.get(parent) if parent is not None else None
    return None


def _shard_rows(spans: Sequence[Span]) -> List[ShardRow]:
    """Group merged shard spans by their owning ``shard.plan`` part key."""
    by_id = {span.span_id: span for span in spans}
    rows: Dict[int, ShardRow] = {}
    for span in spans:
        part = _owning_part(span, by_id)
        if part is None:
            continue
        row = rows.get(part)
        if row is None:
            row = rows[part] = ShardRow(part=part)
        row.spans += 1
        if span.name == "shard.plan":
            row.wall += max(span.wall_duration, 0.0)
            servers = span.attrs.get("servers")
            if isinstance(servers, (int, float)):
                row.servers = int(servers)
    return [rows[part] for part in sorted(rows)]


def _quality_attrs(spans: Sequence[Span]) -> Dict[str, float]:
    """Plan-quality gauges from the ``plan_sharded`` root span, if any."""
    for span in spans:
        if span.name == "plan_sharded":
            return {
                key: float(span.attrs[key])
                for key in _QUALITY_KEYS
                if isinstance(span.attrs.get(key), (int, float))
            }
    return {}


def summarize_spans(
    header: Dict[str, Any], spans: Sequence[Span]
) -> TraceSummary:
    """Aggregate ``spans`` by name and merge every span's counters."""
    by_name: Dict[str, SpanAggregate] = {}
    counters: Dict[str, float] = dict(header.get("counters", {}))
    for span in spans:
        agg = by_name.get(span.name)
        if agg is None:
            agg = by_name[span.name] = SpanAggregate(span.name)
        agg.count += 1
        duration = max(span.wall_duration, 0.0)
        agg.total_wall += duration
        if duration > agg.max_wall:
            agg.max_wall = duration
        for key, value in span.counters.items():
            counters[key] = counters.get(key, 0) + value
    aggregates = sorted(by_name.values(), key=lambda a: -a.total_wall)
    return TraceSummary(
        header=header,
        spans=aggregates,
        counters=counters,
        shards=_shard_rows(spans),
        quality=_quality_attrs(spans),
    )


def render_summary(summary: TraceSummary, top: int = 15) -> str:
    """ASCII rendering: top spans by total wall time + counter table."""
    meta = summary.header.get("meta", {})
    lines = [
        f"Trace summary [{summary.header.get('format', '?')}, "
        f"{summary.header.get('spans', 0)} spans, "
        f"{summary.header.get('events', 0)} events"
        + (f", meta={meta}" if meta else "")
        + "]",
        "",
        f"Top {min(top, len(summary.spans))} spans by total wall time:",
        f"{'span':<28} {'count':>7} {'total':>10} {'mean':>10} {'max':>10}",
        "-" * 69,
    ]
    for agg in summary.spans[:top]:
        lines.append(
            f"{agg.name:<28} {agg.count:>7} {agg.total_wall:>9.4f}s "
            f"{agg.mean_wall:>9.4f}s {agg.max_wall:>9.4f}s"
        )
    if not summary.spans:
        lines.append("(no spans recorded)")
    lines.append("")
    if summary.counters:
        width = max(len(k) for k in summary.counters)
        lines.append("Counters:")
        for name in sorted(summary.counters):
            value = summary.counters[name]
            rendered = f"{value:g}" if isinstance(value, float) else str(value)
            lines.append(f"  {name.ljust(width)} : {rendered}")
    else:
        lines.append("Counters: (none recorded)")
    if summary.shards:
        lines.append("")
        lines.append("Per-shard breakdown:")
        lines.append(
            f"{'part':>6} {'servers':>8} {'spans':>7} {'wall':>10}"
        )
        lines.append("-" * 34)
        for row in summary.shards:
            lines.append(
                f"{row.part:>6} {row.servers:>8} {row.spans:>7} "
                f"{row.wall:>9.4f}s"
            )
    if summary.quality:
        lines.append("")
        lines.append("Plan quality:")
        width = max(len(k) for k in summary.quality)
        for name in sorted(summary.quality):
            lines.append(
                f"  {name.ljust(width)} : {summary.quality[name]:g}"
            )
    return "\n".join(lines)
