"""Span and event tracing with deterministic logical timelines.

A :class:`Tracer` records a tree of named spans and a stream of point
events on one sequence counter. Every record carries two timelines:

* a **logical** one — monotonically increasing sequence numbers
  (``seq_start``/``seq_end`` for a span, assigned in open/close order;
  ``seq`` for an event), plus user-supplied attributes and counters.
  Because the algorithms under observation are deterministic per seed,
  the logical timeline is byte-identical across runs, machines and
  worker counts (the property tests assert this). An event has no
  parent field: its enclosing span is the one whose
  ``[seq_start, seq_end]`` window holds the event's ``seq``;
* a **wall-clock** one — ``perf_counter`` stamps, useful for profiling
  but explicitly excluded from the deterministic view.

Traces serialize to a versioned JSONL format (``rtsp-trace/2``): one
header line followed by one line per record in completion order
(``seq_end`` for spans, ``seq`` for events). An ``on_event`` hook turns
the same tracer into *live progress*: the CLIs print heartbeat events
as they arrive, and the planning service turns each one into a
cancellation checkpoint. :meth:`Tracer.write_tail` writes the last
records only — the flight-recorder dump of
:func:`repro.obs.context.flight_recorded`. Spans also export to the
Chrome trace-event format so a run can be inspected in
``chrome://tracing`` / Perfetto.

:class:`NullTracer` is the default, zero-overhead stand-in: its ``span``
returns a shared no-op context manager and every other method is a
no-op, so instrumented code costs nothing when tracing is off.
"""

from __future__ import annotations

import heapq
import json
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.util.errors import ConfigurationError

__all__ = [
    "TRACE_FORMAT",
    "Event",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "load_trace",
    "render_event",
    "validate_trace_lines",
    "validate_trace_file",
]

#: Version tag written into (and required of) every trace header.
TRACE_FORMAT = "rtsp-trace/2"


@dataclass
class Span:
    """One traced region; finalized when its context manager exits."""

    span_id: int
    parent_id: Optional[int]
    name: str
    seq_start: int
    seq_end: int = -1
    wall_start: float = 0.0
    wall_end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def wall_duration(self) -> float:
        """Wall-clock seconds spent inside the span."""
        return self.wall_end - self.wall_start

    def logical_record(self) -> Dict[str, Any]:
        """The deterministic view: everything except wall-clock fields."""
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "seq": [self.seq_start, self.seq_end],
            "attrs": self.attrs,
            "counters": self.counters,
        }

    def record(self) -> Dict[str, Any]:
        """The full JSONL record (logical fields plus wall-clock)."""
        rec = self.logical_record()
        rec["wall"] = [self.wall_start, self.wall_end]
        return rec


@dataclass
class Event:
    """One point record: a logical sequence number, a name, attributes."""

    seq: int
    name: str
    attrs: Dict[str, Any] = field(default_factory=dict)
    wall: float = 0.0

    def logical_record(self) -> Dict[str, Any]:
        """The deterministic view: everything except the wall clock."""
        return {
            "type": "event",
            "seq": self.seq,
            "name": self.name,
            "attrs": self.attrs,
        }

    def record(self) -> Dict[str, Any]:
        """The full JSONL record (logical fields plus wall clock)."""
        rec = self.logical_record()
        rec["wall"] = self.wall
        return rec


Record = Union[Span, Event]


def _closed_at(record: Record) -> int:
    """A record's completion seq: ``seq_end`` for spans, ``seq`` for events."""
    return record.seq_end if isinstance(record, Span) else record.seq


def render_event(event: Event) -> str:
    """One-line terminal rendering of an event, for ``--progress``."""
    attrs = " ".join(f"{key}={value}" for key, value in event.attrs.items())
    return f"[{event.seq:>5}] {event.name}" + (f" {attrs}" if attrs else "")


def _jsonl(
    meta: Dict[str, Any], counters: Dict[str, float], records: List[Record]
) -> List[str]:
    """Header plus one line per record, as written to disk."""
    spans = sum(isinstance(record, Span) for record in records)
    header = {
        "format": TRACE_FORMAT,
        "meta": meta,
        "spans": spans,
        "events": len(records) - spans,
        "counters": counters,
    }
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(r.record(), sort_keys=True) for r in records)
    return lines


def _write_lines(path: str, lines: List[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class _SpanContext:
    """Context manager opening/closing one span on its tracer."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._attrs)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._close(self._span)
        return False


class Tracer:
    """Collects spans and events; export via :meth:`write_jsonl` /
    :meth:`write_chrome`.

    Not thread-safe: one tracer belongs to one (worker) process. For
    parallel runs each worker records into a fresh tracer and the parent
    stitches the fragments together with :meth:`adopt`, in deterministic
    task order, so the merged logical timeline is independent of worker
    count.

    ``on_event`` (if given) is called with every event after it is
    stored, adopted ones included.
    """

    enabled = True

    def __init__(
        self,
        meta: Optional[Dict[str, Any]] = None,
        on_event: Optional[Callable[[Event], None]] = None,
    ) -> None:
        self.meta = dict(meta or {})
        self.on_event = on_event
        #: Completed spans, in close order.
        self.spans: List[Span] = []
        #: Point events, in seq order.
        self.events: List[Event] = []
        #: Counters recorded outside any open span.
        self.counters: Dict[str, float] = {}
        self._stack: List[Span] = []
        self._next_id = 0
        self._seq = 0
        #: Whether any cross-process fragment was merged in (worker wall
        #: clocks live in foreign perf_counter domains, so the wall
        #: timeline of an adopted trace is incoherent).
        self._adopted = False

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a (possibly nested) span around a ``with`` block."""
        return _SpanContext(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> Event:
        """Record (and forward to ``on_event``) one point event."""
        event = Event(self._seq, name, attrs, time.perf_counter())
        self._seq += 1
        self.events.append(event)
        if self.on_event is not None:
            self.on_event(event)
        return event

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` on the innermost open span
        (or at tracer level when no span is open)."""
        target = self._stack[-1].counters if self._stack else self.counters
        target[name] = target.get(name, 0) + n

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the innermost open span (no-op outside)."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    def current_span(self) -> Optional[Span]:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    def _open(self, name: str, attrs: Dict[str, Any]) -> Span:
        span = Span(
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            seq_start=self._seq,
            wall_start=time.perf_counter(),
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._seq += 1
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        popped = self._stack.pop()
        if popped is not span:  # pragma: no cover - misuse guard
            raise ConfigurationError(
                f"span {span.name!r} closed out of order (open: {popped.name!r})"
            )
        span.seq_end = self._seq
        self._seq += 1
        span.wall_end = time.perf_counter()
        self.spans.append(span)

    # ------------------------------------------------------------------
    # fragment merging (parallel workers)
    # ------------------------------------------------------------------
    def adopt(
        self,
        spans: Iterable[Span],
        parent_id: Optional[int] = None,
        events: Iterable[Event] = (),
    ) -> None:
        """Append a completed fragment's spans and events, re-basing ids
        and seqs by one base so the fragment's interleaving survives.

        Fragments must themselves be closed (every adopted span has a
        ``seq_end``); adopting them in a deterministic order yields a
        merged logical timeline identical to recording everything on
        this tracer in that order.

        ``parent_id`` re-parents the fragment's *root* spans (those with
        ``parent_id is None``) under an existing span of this tracer —
        the cross-process linkage :class:`~repro.shard.pool.WorkQueue`
        uses so worker shard spans nest under the coordinating
        ``plan_sharded`` span instead of merging flat. It may name a
        still-open span: the adopted seqs land inside the open span's
        eventual ``[seq_start, seq_end]`` window (it closes later, at a
        higher seq), preserving timeline containment. Without
        ``parent_id``, adoption while spans are open is rejected —
        silently attaching a fragment to whatever happens to be open
        would make the merged tree depend on call context. Adopted
        events reach ``on_event`` once the whole fragment is stored.
        """
        if self._stack and parent_id is None:
            raise ConfigurationError("cannot adopt spans while spans are open")
        if parent_id is not None and not any(
            s.span_id == parent_id for s in self.spans
        ) and not any(s.span_id == parent_id for s in self._stack):
            raise ConfigurationError(
                f"adopt parent_id {parent_id} references no span of this tracer"
            )
        spans = list(spans)
        events = list(events)
        if not spans and not events:
            return
        id_base = self._next_id
        seq_base = self._seq
        max_id = -1
        max_seq = -1
        for span in spans:
            if span.seq_end < 0:  # pragma: no cover - misuse guard
                raise ConfigurationError(
                    f"cannot adopt unclosed span {span.name!r}"
                )
            self.spans.append(
                Span(
                    span_id=span.span_id + id_base,
                    parent_id=(
                        parent_id
                        if span.parent_id is None
                        else span.parent_id + id_base
                    ),
                    name=span.name,
                    seq_start=span.seq_start + seq_base,
                    seq_end=span.seq_end + seq_base,
                    wall_start=span.wall_start,
                    wall_end=span.wall_end,
                    attrs=dict(span.attrs),
                    counters=dict(span.counters),
                )
            )
            max_id = max(max_id, span.span_id)
            max_seq = max(max_seq, span.seq_end)
        adopted = [
            Event(e.seq + seq_base, e.name, dict(e.attrs), e.wall)
            for e in events
        ]
        self.events.extend(adopted)
        max_seq = max([max_seq] + [e.seq for e in events])
        self._next_id = id_base + max_id + 1
        self._seq = seq_base + max_seq + 1
        self._adopted = True
        if self.on_event is not None:
            for event in adopted:
                self.on_event(event)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def records(self) -> Iterator[Record]:
        """Spans and events merged in completion order."""
        spans: Iterable[Record] = self.spans
        return heapq.merge(spans, self.events, key=_closed_at)

    def to_lines(self) -> List[str]:
        """Full JSONL lines (header + one line per record)."""
        return _jsonl(self.meta, self.counters, list(self.records()))

    def logical_lines(self) -> List[str]:
        """The deterministic timeline: records without wall clocks.

        Byte-identical across runs (and worker counts) for the same seed;
        this is the stream the determinism property tests compare.
        """
        return [
            json.dumps(record.logical_record(), sort_keys=True)
            for record in self.records()
        ]

    def write_jsonl(self, path: str) -> None:
        """Write the versioned ``rtsp-trace/2`` JSONL file."""
        _write_lines(path, self.to_lines())

    def write_tail(self, path: str, capacity: int, reason: str) -> None:
        """Write only the last ``capacity`` records (a flight-recorder
        dump), with ``reason`` and the ``dropped`` count in the meta.

        Once every span has closed the tail names only parents it
        holds, since a parent closes after its children, so the dump
        is itself a valid trace.
        """
        records = list(self.records())
        tail = records[-capacity:]
        meta = dict(self.meta, reason=reason, dropped=len(records) - len(tail))
        _write_lines(path, _jsonl(meta, self.counters, tail))

    def _resolve_clock(self, clock: str) -> str:
        """Resolve a chrome-export clock mode (``auto``/``wall``/``logical``)."""
        if clock == "auto":
            return "logical" if self._adopted else "wall"
        if clock not in ("wall", "logical"):
            raise ConfigurationError(
                f"chrome clock must be 'auto', 'wall' or 'logical', "
                f"got {clock!r}"
            )
        return clock

    def chrome_events(self, clock: str = "auto") -> List[Dict[str, Any]]:
        """Chrome trace-event list (``ph: "X"`` complete events).

        ``clock`` picks the timeline:

        * ``"wall"`` — raw ``perf_counter`` stamps. Correct nesting for
          single-process traces; meaningless once worker fragments with
          foreign clocks were adopted.
        * ``"logical"`` — the deterministic sequence timeline
          (``ts = seq_start``, ``dur = seq_end - seq_start``). Because a
          child's seq window is strictly inside its parent's, Perfetto's
          stack-based nesting reproduces the span tree exactly — adopted
          worker spans nest under their cross-process parent. Wall-clock
          milliseconds are preserved per event in ``args.wall_ms``.
        * ``"auto"`` (default) — ``logical`` when fragments were adopted,
          ``wall`` otherwise.
        """
        mode = self._resolve_clock(clock)
        events = []
        for span in self.spans:
            args = dict(span.attrs)
            if span.counters:
                args["counters"] = span.counters
            if mode == "logical":
                args["wall_ms"] = round(max(span.wall_duration, 0.0) * 1e3, 6)
                ts = float(span.seq_start)
                dur = float(span.seq_end - span.seq_start)
            else:
                ts = span.wall_start * 1e6
                dur = max(span.wall_duration, 0.0) * 1e6
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": ts,
                    "dur": dur,
                    "pid": 0,
                    "tid": 0,
                    "args": args,
                }
            )
        return events

    def write_chrome(self, path: str, clock: str = "auto") -> None:
        """Write a ``chrome://tracing`` / Perfetto compatible JSON file."""
        mode = self._resolve_clock(clock)
        payload = {
            "traceEvents": self.chrome_events(clock=mode),
            "displayTimeUnit": "ms",
            "otherData": dict(self.meta, format=TRACE_FORMAT, clock=mode),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Tracer(spans={len(self.spans)}, events={len(self.events)}, "
            f"open={len(self._stack)})"
        )


class _NullSpanContext:
    """Shared no-op context manager handed out by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpanContext()


class NullTracer:
    """Zero-overhead tracer: every operation is a no-op.

    The module-level singleton :data:`NULL_TRACER` is the default active
    tracer; instrumented code can call it unconditionally.
    """

    enabled = False
    spans: Tuple[Span, ...] = ()
    events: Tuple[Event, ...] = ()
    counters: Dict[str, float] = {}

    __slots__ = ()

    def span(self, name: str, **attrs: Any) -> _NullSpanContext:
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def count(self, name: str, n: float = 1) -> None:
        return None

    def annotate(self, **attrs: Any) -> None:
        return None

    def current_span(self) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "NullTracer()"


#: The process-wide default tracer (see :mod:`repro.obs.context`).
NULL_TRACER = NullTracer()


# ----------------------------------------------------------------------
# loading and validation
# ----------------------------------------------------------------------
def _read_lines(path: str) -> List[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line for line in fh.read().splitlines() if line.strip()]


def load_trace(path: str) -> Tuple[Dict[str, Any], List[Span], List[Event]]:
    """Read an ``rtsp-trace/2`` JSONL file back into (header, spans, events).

    Raises :class:`~repro.util.errors.ConfigurationError` when the file
    does not validate against the schema.
    """
    lines = _read_lines(path)
    errors = validate_trace_lines(lines)
    if errors:
        raise ConfigurationError(
            f"{path} is not a valid {TRACE_FORMAT} trace: " + "; ".join(errors[:5])
        )
    header = json.loads(lines[0])
    spans: List[Span] = []
    events: List[Event] = []
    for line in lines[1:]:
        rec = json.loads(line)
        if rec["type"] == "event":
            attrs, wall = rec.get("attrs", {}), rec.get("wall", 0.0)
            events.append(Event(rec["seq"], rec["name"], attrs, wall))
            continue
        spans.append(
            Span(
                span_id=rec["id"],
                parent_id=rec["parent"],
                name=rec["name"],
                seq_start=rec["seq"][0],
                seq_end=rec["seq"][1],
                wall_start=rec["wall"][0],
                wall_end=rec["wall"][1],
                attrs=rec.get("attrs", {}),
                counters=rec.get("counters", {}),
            )
        )
    return header, spans, events


def _span_problems(rec: Dict[str, Any]) -> List[str]:
    """Schema problems of one span record (its ``id`` is an int)."""
    problems = []
    parent = rec.get("parent")
    if parent is not None and not isinstance(parent, int):
        problems.append("'parent' must be null or an integer")
    seq = rec.get("seq")
    if (
        not isinstance(seq, list)
        or len(seq) != 2
        or not all(isinstance(s, int) for s in seq)
        or seq[0] > seq[1]
    ):
        problems.append("'seq' must be [start, end] ints with start <= end")
    wall = rec.get("wall")
    if (
        not isinstance(wall, list)
        or len(wall) != 2
        or not all(isinstance(w, (int, float)) for w in wall)
    ):
        problems.append("'wall' must be [start, end] numbers")
    if "counters" in rec and not isinstance(rec["counters"], dict):
        problems.append("'counters' must be an object")
    return problems


def _event_problems(rec: Dict[str, Any]) -> List[str]:
    """Schema problems of one event record."""
    problems = []
    seq = rec.get("seq")
    if not isinstance(seq, int) or seq < 0:
        problems.append("'seq' must be a non-negative integer")
    wall = rec.get("wall")
    if wall is not None and not isinstance(wall, (int, float)):
        problems.append("'wall' must be a number")
    return problems


def validate_trace_lines(lines: List[str]) -> List[str]:
    """Validate JSONL lines against the ``rtsp-trace/2`` schema.

    Returns a (possibly empty) list of human-readable problems; an empty
    list means the trace is schema-valid. Beyond each record's shape it
    checks the header's span and event counts, that records appear in
    strictly increasing completion seq, and that every span parent is
    present.
    """
    errors: List[str] = []
    if not lines:
        return ["empty trace (missing header line)"]
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return [f"header is not valid JSON: {exc}"]
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        errors.append(
            f"header format must be {TRACE_FORMAT!r}, "
            f"got {header.get('format')!r}"
            if isinstance(header, dict)
            else "header must be a JSON object"
        )
        return errors
    for key in ("spans", "events"):
        declared = header.get(key)
        if not isinstance(declared, int) or declared < 0:
            errors.append(f"header {key!r} must be a non-negative integer")
    counts = {"span": 0, "event": 0}
    seen_ids = set()
    parents = []
    last_seq: Optional[int] = None
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {lineno}: not valid JSON: {exc}")
            continue
        kind = rec.get("type") if isinstance(rec, dict) else None
        if kind not in counts:
            errors.append(f"line {lineno}: record type must be 'span' or 'event'")
            continue
        counts[kind] += 1
        if kind == "span":
            span_id = rec.get("id")
            if not isinstance(span_id, int):
                errors.append(f"line {lineno}: 'id' must be an integer")
                continue
            if span_id in seen_ids:
                errors.append(f"line {lineno}: duplicate span id {span_id}")
            seen_ids.add(span_id)
            parents.append((lineno, rec.get("parent")))
            problems = _span_problems(rec)
        else:
            problems = _event_problems(rec)
        if not isinstance(rec.get("name"), str):
            problems.append("'name' must be a string")
        if "attrs" in rec and not isinstance(rec["attrs"], dict):
            problems.append("'attrs' must be an object")
        errors.extend(f"line {lineno}: {problem}" for problem in problems)
        if problems:
            continue
        closed = rec["seq"][1] if kind == "span" else rec["seq"]
        if last_seq is not None and closed <= last_seq:
            errors.append(
                f"line {lineno}: records must be in strictly increasing "
                f"completion seq ({closed} after {last_seq})"
            )
        last_seq = closed
    for kind, count in counts.items():
        declared = header.get(f"{kind}s")
        if isinstance(declared, int) and declared != count:
            errors.append(
                f"header declares {declared} {kind}s but file contains {count}"
            )
    errors.extend(
        f"line {lineno}: parent {parent} references no span"
        for lineno, parent in parents
        if isinstance(parent, int) and parent not in seen_ids
    )
    return errors


def validate_trace_file(path: str) -> List[str]:
    """Validate a trace file on disk; returns the list of problems."""
    return validate_trace_lines(_read_lines(path))
