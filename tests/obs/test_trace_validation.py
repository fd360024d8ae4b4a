"""Malformed-input coverage for trace validation and Chrome escaping."""

import json

import pytest

from repro.obs.trace import (
    TRACE_FORMAT,
    Tracer,
    validate_trace_file,
    validate_trace_lines,
)


def _header(spans=1, events=0):
    return json.dumps(
        {"format": TRACE_FORMAT, "meta": {}, "spans": spans, "events": events,
         "counters": {}}
    )


def _span_line(**overrides):
    rec = {
        "type": "span",
        "id": 0,
        "parent": None,
        "name": "s",
        "seq": [0, 1],
        "wall": [0.0, 0.1],
        "attrs": {},
        "counters": {},
    }
    rec.update(overrides)
    return json.dumps(rec)


class TestMalformedTraces:
    def test_header_not_json(self):
        assert any(
            "header" in p for p in validate_trace_lines(["{broken"])
        )

    def test_header_not_object(self):
        assert validate_trace_lines(["[1, 2]"]) != []

    def test_header_bad_span_count_type(self):
        header = json.dumps(
            {"format": TRACE_FORMAT, "meta": {}, "spans": "two", "counters": {}}
        )
        assert any(
            "spans" in p for p in validate_trace_lines([header])
        )

    def test_body_not_json(self):
        problems = validate_trace_lines([_header(1), "{oops"])
        assert any("line 2" in p for p in problems)

    def test_body_wrong_type_tag(self):
        problems = validate_trace_lines(
            [_header(1), _span_line(type="marker")]
        )
        assert any("type" in p for p in problems)

    def test_body_non_integer_id(self):
        problems = validate_trace_lines([_header(1), _span_line(id="zero")])
        assert any("'id'" in p for p in problems)

    def test_body_bad_parent_type(self):
        problems = validate_trace_lines(
            [_header(1), _span_line(parent="root")]
        )
        assert any("parent" in p for p in problems)

    def test_body_bad_name_type(self):
        problems = validate_trace_lines([_header(1), _span_line(name=7)])
        assert any("name" in p for p in problems)

    def test_body_bad_seq_shape(self):
        problems = validate_trace_lines([_header(1), _span_line(seq=[1])])
        assert problems != []

    def test_duplicate_span_ids(self):
        problems = validate_trace_lines(
            [_header(2), _span_line(id=0), _span_line(id=0)]
        )
        assert problems != []

    def test_validate_file_missing(self, tmp_path):
        with pytest.raises(OSError):
            validate_trace_file(str(tmp_path / "absent.jsonl"))

    def test_validate_file_garbage(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json at all\n")
        assert validate_trace_file(str(path)) != []


class TestChromeEscaping:
    def _trace_with_attrs(self, **attrs):
        tracer = Tracer()
        with tracer.span("s", **attrs):
            pass
        return tracer

    def test_non_ascii_attrs_survive(self, tmp_path):
        tracer = self._trace_with_attrs(note="καλημέρα ☃")
        path = tmp_path / "chrome.json"
        tracer.write_chrome(str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        args = payload["traceEvents"][0]["args"]
        assert args["note"] == "καλημέρα ☃"

    def test_quotes_and_backslashes_escaped(self, tmp_path):
        tricky = 'he said "hi\\there"\nnewline'
        tracer = self._trace_with_attrs(note=tricky)
        path = tmp_path / "chrome.json"
        tracer.write_chrome(str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["traceEvents"][0]["args"]["note"] == tricky

    def test_nested_dict_attrs_survive(self, tmp_path):
        nested = {"outer": {"inner": [1, 2, {"deep": "value"}]}}
        tracer = self._trace_with_attrs(payload=nested)
        path = tmp_path / "chrome.json"
        tracer.write_chrome(str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["traceEvents"][0]["args"]["payload"] == nested

    def test_chrome_events_json_serializable(self):
        tracer = self._trace_with_attrs(
            mixed={"α": ['"', "\\", {"β": None}]}
        )
        dumped = json.dumps(tracer.chrome_events(), ensure_ascii=True)
        assert json.loads(dumped)[0]["args"]["mixed"]["α"][2]["β"] is None
