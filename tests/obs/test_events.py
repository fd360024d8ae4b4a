"""Tests for the tracer's event records and the flight-recorder tail."""

import json
import threading

import pytest

from repro.obs.context import current_tracer, flight_recorded, use_tracer
from repro.obs.trace import (
    NULL_TRACER,
    TRACE_FORMAT,
    Event,
    Tracer,
    load_trace,
    render_event,
    validate_trace_file,
    validate_trace_lines,
)
from repro.util.errors import ConfigurationError


def _header(spans=0, events=1):
    return json.dumps(
        {"format": TRACE_FORMAT, "meta": {}, "spans": spans, "events": events,
         "counters": {}}
    )


class TestEvents:
    def test_emit_assigns_sequential_seqs(self):
        tracer = Tracer()
        a = tracer.event("a")
        b = tracer.event("b", n=1)
        assert (a.seq, b.seq) == (0, 1)
        assert b.attrs == {"n": 1}

    def test_logical_record_excludes_wall(self):
        tracer = Tracer()
        tracer.event("x")
        record = tracer.events[0].logical_record()
        assert "wall" not in record
        assert "wall" in tracer.events[0].record()

    def test_on_event_hook_fires_live(self):
        seen = []
        tracer = Tracer(on_event=seen.append)
        tracer.event("one")
        assert [e.name for e in seen] == ["one"]
        assert seen[0] is tracer.events[-1]  # stored before the hook ran
        tracer.event("two")
        assert [e.name for e in seen] == ["one", "two"]

    def test_adopt_rebases_seqs_in_order(self):
        parent = Tracer()
        parent.event("before")
        fragment = Tracer()
        fragment.event("frag.a")
        fragment.event("frag.b")
        parent.adopt(fragment.spans, events=fragment.events)
        assert [e.name for e in parent.events] == [
            "before", "frag.a", "frag.b",
        ]
        assert [e.seq for e in parent.events] == [0, 1, 2]

    def test_adopt_feeds_hook(self):
        seen = []
        parent = Tracer(on_event=seen.append)
        fragment = Tracer()
        fragment.event("frag")
        parent.adopt(fragment.spans, events=fragment.events)
        assert [e.name for e in seen] == ["frag"]
        assert seen == parent.events

    def test_adopt_keeps_span_event_interleaving(self):
        fragment = Tracer()
        with fragment.span("s"):
            fragment.event("inside")
        fragment.event("after")
        parent = Tracer()
        parent.event("first")
        parent.adopt(fragment.spans, events=fragment.events)
        span = parent.spans[0]
        inside, after = parent.events[1:]
        assert span.seq_start < inside.seq < span.seq_end < after.seq

    def test_merged_stream_independent_of_fragmentation(self):
        """One tracer vs two adopted fragments: same logical lines."""
        whole = Tracer()
        for name in ("a", "b", "c", "d"):
            whole.event(name)
        merged = Tracer()
        first, second = Tracer(), Tracer()
        first.event("a")
        first.event("b")
        second.event("c")
        second.event("d")
        merged.adopt(first.spans, events=first.events)
        merged.adopt(second.spans, events=second.events)
        assert merged.logical_lines() == whole.logical_lines()

    def test_roundtrip_through_jsonl(self, tmp_path):
        tracer = Tracer(meta={"run": "t"})
        tracer.event("x", k=1)
        with tracer.span("s"):
            tracer.event("y")
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(path))
        assert validate_trace_file(str(path)) == []
        header, spans, events = load_trace(str(path))
        assert header["format"] == TRACE_FORMAT
        assert header["meta"] == {"run": "t"}
        assert (header["spans"], header["events"]) == (1, 2)
        assert [e.name for e in events] == ["x", "y"]
        assert events[0].attrs == {"k": 1}
        assert [s.name for s in spans] == ["s"]

    def test_render_event_one_line(self):
        line = render_event(Event(seq=3, name="shard.part", attrs={"part": 1}))
        assert "shard.part" in line and "part=1" in line and "\n" not in line

    def test_null_tracer_records_no_events(self):
        assert NULL_TRACER.event("x", n=1) is None
        assert NULL_TRACER.events == ()


class TestValidation:
    def test_accepts_own_output(self):
        tracer = Tracer()
        tracer.event("a")
        assert validate_trace_lines(tracer.to_lines()) == []

    def test_rejects_empty(self):
        assert validate_trace_lines([]) != []

    def test_rejects_wrong_format(self):
        legacy = '{"format": "rtsp-trace/1", "spans": 0, "counters": {}}'
        assert any("format" in p for p in validate_trace_lines([legacy]))

    def test_rejects_unparseable_json(self):
        assert validate_trace_lines([_header(), "{not json"]) != []

    def test_rejects_count_mismatch(self):
        assert any(
            "declares 1 events" in p for p in validate_trace_lines([_header()])
        )

    def test_rejects_non_monotone_seq(self):
        e0 = json.dumps({"type": "event", "seq": 1, "name": "a", "attrs": {}})
        e1 = json.dumps({"type": "event", "seq": 0, "name": "b", "attrs": {}})
        problems = validate_trace_lines([_header(events=2), e0, e1])
        assert any("completion seq" in p for p in problems)

    def test_rejects_bad_attrs_type(self):
        bad = json.dumps(
            {"type": "event", "seq": 0, "name": "a", "attrs": [1]}
        )
        assert validate_trace_lines([_header(), bad]) != []

    def test_load_invalid_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "bogus/9"}\n')
        with pytest.raises(ConfigurationError):
            load_trace(str(path))


class TestFlightTail:
    def _crash(self, path, capacity, ticks):
        with pytest.raises(RuntimeError):
            with flight_recorded(str(path), capacity=capacity) as tracer:
                for i in range(ticks):
                    tracer.event("tick", i=i)
                raise RuntimeError("boom")

    def test_tail_keeps_last_capacity_records(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        self._crash(path, capacity=3, ticks=10)
        header, _, events = load_trace(str(path))
        assert header["meta"]["dropped"] == 8
        assert [e.attrs.get("i") for e in events] == [8, 9, None]

    def test_capacity_validated(self, tmp_path):
        with pytest.raises(ConfigurationError):
            with flight_recorded(str(tmp_path / "f.jsonl"), capacity=0):
                pass

    def test_dump_is_valid_trace_file(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        self._crash(path, capacity=4, ticks=6)
        assert validate_trace_file(str(path)) == []
        header, _, events = load_trace(str(path))
        assert header["meta"]["dropped"] == 3
        assert header["meta"]["reason"] == "exception: RuntimeError"
        assert [e.attrs.get("i") for e in events] == [3, 4, 5, None]


class TestFlightRecorded:
    def test_installs_active_stream(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        with flight_recorded(str(path)) as tracer:
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER
        assert not path.exists()  # clean exit writes nothing

    def test_dumps_on_exception(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        with pytest.raises(RuntimeError):
            with flight_recorded(str(path)) as tracer:
                tracer.event("step", n=1)
                raise RuntimeError("boom")
        assert validate_trace_file(str(path)) == []
        header, _, events = load_trace(str(path))
        assert "exception: RuntimeError" in header["meta"]["reason"]
        assert [e.name for e in events] == ["step", "exception"]
        assert events[-1].attrs["error"] == "RuntimeError"


class TestContext:
    def test_use_tracer_scoped(self):
        tracer = Tracer()
        assert current_tracer() is NULL_TRACER
        with use_tracer(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_context_is_per_thread(self):
        """A tracer installed by one thread is invisible to another."""
        tracer = Tracer()
        installed, checked = threading.Event(), threading.Event()
        seen = []

        def holder():
            with use_tracer(tracer):
                installed.set()
                checked.wait(10.0)

        thread = threading.Thread(target=holder)
        thread.start()
        try:
            assert installed.wait(10.0)
            seen.append(current_tracer())
            other = threading.Thread(
                target=lambda: seen.append(current_tracer())
            )
            other.start()
            other.join()
        finally:
            checked.set()
            thread.join()
        assert seen == [NULL_TRACER, NULL_TRACER]
