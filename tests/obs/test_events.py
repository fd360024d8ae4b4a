"""Tests for the rtsp-events/1 event stream and the flight recorder."""

import json
import threading

import pytest

from repro.obs.events import (
    EVENTS_FORMAT,
    Event,
    EventStream,
    FlightRecorder,
    flight_recorded,
    load_events,
    render_event,
    validate_event_file,
    validate_event_lines,
)
from repro.obs.context import current_events, use_events
from repro.util.errors import ConfigurationError


class TestEventStream:
    def test_emit_assigns_sequential_seqs(self):
        stream = EventStream()
        a = stream.emit("a")
        b = stream.emit("b", n=1)
        assert (a.seq, b.seq) == (0, 1)
        assert b.attrs == {"n": 1}

    def test_logical_record_excludes_wall(self):
        stream = EventStream()
        stream.emit("x")
        record = stream.events[0].logical_record()
        assert "wall" not in record
        assert "wall" in stream.events[0].record()

    def test_on_event_hook_fires_live(self):
        seen = []
        stream = EventStream(on_event=seen.append)
        stream.emit("one")
        stream.emit("two")
        assert [e.name for e in seen] == ["one", "two"]

    def test_adopt_rebases_seqs_in_order(self):
        parent = EventStream()
        parent.emit("before")
        fragment = EventStream()
        fragment.emit("frag.a")
        fragment.emit("frag.b")
        parent.adopt(fragment.events)
        assert [e.name for e in parent.events] == [
            "before", "frag.a", "frag.b",
        ]
        assert [e.seq for e in parent.events] == [0, 1, 2]

    def test_adopt_feeds_hook_and_recorder(self):
        seen = []
        recorder = FlightRecorder(capacity=8)
        parent = EventStream(on_event=seen.append, recorder=recorder)
        fragment = EventStream()
        fragment.emit("frag")
        parent.adopt(fragment.events)
        assert [e.name for e in seen] == ["frag"]
        assert [e.name for e in recorder.events] == ["frag"]

    def test_merged_stream_independent_of_fragmentation(self):
        """One stream vs two adopted fragments: same logical lines."""
        whole = EventStream()
        for name in ("a", "b", "c", "d"):
            whole.emit(name)
        merged = EventStream()
        first, second = EventStream(), EventStream()
        first.emit("a")
        first.emit("b")
        second.emit("c")
        second.emit("d")
        merged.adopt(first.events)
        merged.adopt(second.events)
        assert merged.logical_lines() == whole.logical_lines()

    def test_roundtrip_through_jsonl(self, tmp_path):
        stream = EventStream(meta={"run": "t"})
        stream.emit("x", k=1)
        stream.emit("y")
        path = tmp_path / "events.jsonl"
        stream.write_jsonl(str(path))
        assert validate_event_file(str(path)) == []
        header, events = load_events(str(path))
        assert header["format"] == EVENTS_FORMAT
        assert header["meta"] == {"run": "t"}
        assert [e.name for e in events] == ["x", "y"]
        assert events[0].attrs == {"k": 1}

    def test_render_event_one_line(self):
        line = render_event(Event(seq=3, name="shard.part", attrs={"part": 1}))
        assert "shard.part" in line and "part=1" in line and "\n" not in line


class TestValidation:
    def _lines(self, stream):
        return stream.to_lines()

    def test_accepts_own_output(self):
        stream = EventStream()
        stream.emit("a")
        assert validate_event_lines(stream.to_lines()) == []

    def test_rejects_empty(self):
        assert validate_event_lines([]) != []

    def test_rejects_wrong_format(self):
        assert any(
            "format" in p
            for p in validate_event_lines(['{"format": "bogus/9", "events": 0}'])
        )

    def test_rejects_unparseable_json(self):
        header = json.dumps({"format": EVENTS_FORMAT, "events": 1})
        assert validate_event_lines([header, "{not json"]) != []

    def test_rejects_count_mismatch(self):
        header = json.dumps({"format": EVENTS_FORMAT, "events": 2})
        assert any(
            "declares" in p for p in validate_event_lines([header])
        )

    def test_rejects_non_monotone_seq(self):
        header = json.dumps({"format": EVENTS_FORMAT, "events": 2})
        e0 = json.dumps({"type": "event", "seq": 1, "name": "a", "attrs": {}})
        e1 = json.dumps({"type": "event", "seq": 0, "name": "b", "attrs": {}})
        assert validate_event_lines([header, e0, e1]) != []

    def test_rejects_bad_attrs_type(self):
        header = json.dumps({"format": EVENTS_FORMAT, "events": 1})
        bad = json.dumps(
            {"type": "event", "seq": 0, "name": "a", "attrs": [1]}
        )
        assert validate_event_lines([header, bad]) != []

    def test_load_invalid_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "bogus/9"}\n')
        with pytest.raises(ConfigurationError):
            load_events(str(path))


class TestFlightRecorder:
    def test_ring_keeps_last_capacity_events(self):
        recorder = FlightRecorder(capacity=3)
        stream = EventStream(recorder=recorder)
        for i in range(10):
            stream.emit("tick", i=i)
        assert len(recorder) == 3
        assert recorder.dropped == 7
        assert [e.attrs["i"] for e in recorder.events] == [7, 8, 9]

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            FlightRecorder(capacity=0)

    def test_dump_is_valid_events_file(self, tmp_path):
        recorder = FlightRecorder(capacity=4)
        stream = EventStream(recorder=recorder)
        for i in range(6):
            stream.emit("tick", i=i)
        path = tmp_path / "flight.jsonl"
        recorder.dump(str(path), reason="test")
        assert validate_event_file(str(path)) == []
        header, events = load_events(str(path))
        assert header["meta"]["flight_recorder"] is True
        assert header["meta"]["dropped"] == 2
        assert header["meta"]["reason"] == "test"
        assert [e.attrs["i"] for e in events] == [2, 3, 4, 5]

    def test_dump_without_destination_raises(self):
        with pytest.raises(ConfigurationError):
            FlightRecorder(capacity=2).dump()

    def test_note_records_synthetic_event(self):
        recorder = FlightRecorder(capacity=2)
        recorder.note("crash", code=1)
        assert [e.name for e in recorder.events] == ["crash"]


class TestFlightRecorded:
    def test_installs_active_stream(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        with flight_recorded(str(path)) as stream:
            assert current_events() is stream
        assert current_events() is None
        assert not path.exists()  # clean exit writes nothing

    def test_dumps_on_exception(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        with pytest.raises(RuntimeError):
            with flight_recorded(str(path)) as stream:
                stream.emit("step", n=1)
                raise RuntimeError("boom")
        assert validate_event_file(str(path)) == []
        header, events = load_events(str(path))
        assert "exception: RuntimeError" in header["meta"]["reason"]
        assert [e.name for e in events] == ["step", "exception"]
        assert events[-1].attrs["error"] == "RuntimeError"


class TestContext:
    def test_use_events_scoped(self):
        stream = EventStream()
        assert current_events() is None
        with use_events(stream):
            assert current_events() is stream
        assert current_events() is None

    def test_context_is_per_thread(self):
        """A stream installed by one thread is invisible to another."""
        stream = EventStream()
        installed, checked = threading.Event(), threading.Event()
        seen = []

        def holder():
            with use_events(stream):
                installed.set()
                checked.wait(10.0)

        thread = threading.Thread(target=holder)
        thread.start()
        try:
            assert installed.wait(10.0)
            seen.append(current_events())
            other = threading.Thread(
                target=lambda: seen.append(current_events())
            )
            other.start()
            other.join()
        finally:
            checked.set()
            thread.join()
        assert seen == [None, None]
