"""Tests for the span tracer and the rtsp-trace/2 format."""

import json

import pytest

from repro.obs.context import flight_recorded
from repro.obs.trace import (
    NULL_TRACER,
    Event,
    NullTracer,
    Span,
    TRACE_FORMAT,
    Tracer,
    load_trace,
    validate_trace_file,
    validate_trace_lines,
)
from repro.util.errors import ConfigurationError


class TestTracer:
    def test_span_nesting_and_ids(self):
        t = Tracer()
        with t.span("outer") as outer:
            with t.span("inner") as inner:
                pass
        # Close order: inner first.
        assert [s.name for s in t.spans] == ["inner", "outer"]
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.span_id != inner.span_id

    def test_seq_numbers_bracket_children(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("a"):
                pass
            with t.span("b"):
                pass
        outer = next(s for s in t.spans if s.name == "outer")
        a = next(s for s in t.spans if s.name == "a")
        b = next(s for s in t.spans if s.name == "b")
        assert outer.seq_start < a.seq_start < a.seq_end
        assert a.seq_end < b.seq_start < b.seq_end < outer.seq_end

    def test_attrs_and_annotate(self):
        t = Tracer()
        with t.span("s", x=1) as span:
            t.annotate(cost=42.0)
        assert span.attrs == {"x": 1, "cost": 42.0}

    def test_annotate_outside_span_is_noop(self):
        t = Tracer()
        t.annotate(ignored=True)  # must not raise
        assert t.spans == []

    def test_count_targets_innermost_span(self):
        t = Tracer()
        with t.span("s") as span:
            t.count("hits")
            t.count("hits", 2)
        t.count("toplevel", 5)
        assert span.counters == {"hits": 3}
        assert t.counters == {"toplevel": 5}

    def test_event_is_point_record(self):
        t = Tracer()
        event = t.event("marker", k=1)
        assert isinstance(event, Event)
        assert (event.seq, event.name, event.attrs) == (0, "marker", {"k": 1})
        assert t.events == [event]
        assert t.spans == []

    def test_spans_and_events_share_one_seq(self):
        t = Tracer()
        t.event("before")
        with t.span("outer"):
            with t.span("inner"):
                t.event("deep")
            t.event("shallow")
        t.event("after")
        closed = [
            r.seq_end if isinstance(r, Span) else r.seq for r in t.records()
        ]
        assert closed == sorted(set(closed))
        seqs = [e.seq for e in t.events]
        seqs += [n for s in t.spans for n in (s.seq_start, s.seq_end)]
        assert sorted(seqs) == list(range(len(seqs)))
        inner = next(s for s in t.spans if s.name == "inner")
        outer = next(s for s in t.spans if s.name == "outer")
        by_name = {e.name: e.seq for e in t.events}
        assert inner.seq_start < by_name["deep"] < inner.seq_end
        assert inner.seq_end < by_name["shallow"] < outer.seq_end
        assert by_name["before"] < outer.seq_start
        assert outer.seq_end < by_name["after"]

    def test_exception_sets_error_attr(self):
        t = Tracer()
        with pytest.raises(ValueError):
            with t.span("boom"):
                raise ValueError("x")
        assert t.spans[0].attrs["error"] == "ValueError"

    def test_adopt_rebases_ids_and_seqs(self):
        parent = Tracer()
        with parent.span("local"):
            pass
        frag = Tracer()
        with frag.span("remote"):
            with frag.span("child"):
                pass
        parent.adopt(frag.spans)
        ids = [s.span_id for s in parent.spans]
        assert len(set(ids)) == len(ids)
        remote = next(s for s in parent.spans if s.name == "remote")
        child = next(s for s in parent.spans if s.name == "child")
        assert child.parent_id == remote.span_id
        local = next(s for s in parent.spans if s.name == "local")
        assert remote.seq_start > local.seq_end

    def test_adopt_while_open_raises(self):
        t = Tracer()
        frag = Tracer()
        with frag.span("f"):
            pass
        with t.span("open"):
            with pytest.raises(ConfigurationError):
                t.adopt(frag.spans)

    def test_adopt_order_determines_logical_stream(self):
        def fragment(name):
            f = Tracer()
            with f.span(name):
                pass
            return f.spans

        a = Tracer()
        a.adopt(fragment("one"))
        a.adopt(fragment("two"))
        b = Tracer()
        b.adopt(fragment("one"))
        b.adopt(fragment("two"))
        assert a.logical_lines() == b.logical_lines()

    def test_logical_lines_exclude_wall(self):
        t = Tracer()
        with t.span("s"):
            pass
        for line in t.logical_lines():
            assert "wall" not in json.loads(line)


class TestSerialization:
    def _traced(self):
        t = Tracer(meta={"figure": "4"})
        with t.span("outer", x=1):
            with t.span("inner"):
                t.count("n", 3)
        return t

    def test_roundtrip(self, tmp_path):
        t = self._traced()
        path = str(tmp_path / "trace.jsonl")
        t.write_jsonl(path)
        header, spans, _ = load_trace(path)
        assert header["format"] == TRACE_FORMAT
        assert header["meta"] == {"figure": "4"}
        assert header["spans"] == len(spans) == 2
        assert [s.logical_record() for s in spans] == [
            s.logical_record() for s in t.spans
        ]

    def test_validate_accepts_own_output(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        self._traced().write_jsonl(path)
        assert validate_trace_file(path) == []

    def test_validate_rejects_wrong_format(self):
        assert validate_trace_lines(['{"format": "bogus/9"}'])

    def test_validate_rejects_span_count_mismatch(self):
        header = json.dumps(
            {"format": TRACE_FORMAT, "meta": {}, "spans": 2, "events": 0,
             "counters": {}}
        )
        assert any(
            "declares 2 spans" in e for e in validate_trace_lines([header])
        )

    def test_validate_rejects_dangling_parent(self):
        t = self._traced()
        lines = t.to_lines()
        rec = json.loads(lines[1])
        rec["parent"] = 999
        lines[1] = json.dumps(rec)
        assert any("parent 999" in e for e in validate_trace_lines(lines))

    def test_flight_dump_after_deep_exception_validates(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        with pytest.raises(RuntimeError):
            with flight_recorded(str(path), capacity=4) as t:
                for i in range(3):
                    with t.span("warmup", i=i):
                        t.event("tick", i=i)
                with t.span("a"):
                    with t.span("b"):
                        with t.span("c"):
                            t.event("step")
                            raise RuntimeError("boom")
        assert validate_trace_file(str(path)) == []
        header, spans, events = load_trace(str(path))
        assert header["format"] == TRACE_FORMAT
        assert [s.name for s in spans] == ["c", "b", "a"]
        assert all(s.attrs["error"] == "RuntimeError" for s in spans)
        assert [e.name for e in events] == ["exception"]
        ids = {s.span_id for s in spans}
        assert all(s.parent_id in ids for s in spans if s.name != "a")
        # 6 warm-up records, "step": 7 fell out of the 4-record tail.
        assert header["meta"]["dropped"] == 7

    def test_validate_empty(self):
        assert validate_trace_lines([])

    def test_load_invalid_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "nope"}\n')
        with pytest.raises(ConfigurationError):
            load_trace(str(path))

    def test_chrome_export(self, tmp_path):
        t = self._traced()
        events = t.chrome_events()
        assert len(events) == 2
        assert all(e["ph"] == "X" for e in events)
        inner = next(e for e in events if e["name"] == "inner")
        assert inner["args"]["counters"] == {"n": 3}
        path = tmp_path / "chrome.json"
        t.write_chrome(str(path))
        payload = json.loads(path.read_text())
        assert payload["otherData"]["format"] == TRACE_FORMAT
        assert len(payload["traceEvents"]) == 2


class TestNullTracer:
    def test_all_ops_are_noops(self):
        t = NullTracer()
        with t.span("s", x=1) as span:
            assert span is None
            t.count("n")
            t.annotate(a=2)
        t.event("e")
        assert t.spans == ()
        assert not t.enabled

    def test_singleton_disabled(self):
        assert NULL_TRACER.enabled is False

    def test_span_records_are_json_stable(self):
        span = Span(span_id=0, parent_id=None, name="s", seq_start=0, seq_end=1)
        rec = span.record()
        assert rec["seq"] == [0, 1]
        assert rec["wall"] == [0.0, 0.0]
