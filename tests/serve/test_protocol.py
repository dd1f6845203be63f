"""Tests for the daemon wire protocol codec (repro.serve.protocol)."""

from __future__ import annotations

import json

import pytest

from repro.ras.events import NO_JOB, RasEvent
from repro.ras.fields import Facility, Severity
from repro.serve.protocol import (
    MAX_BATCH_EVENTS,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    busy_response,
    decode_frame,
    decode_request,
    encode_frame,
    decode_events,
    error_response,
    event_to_dict,
    http_request_path,
    http_response,
    is_http_request,
    ok_response,
    warning_to_dict,
)
from tests.conftest import make_event

# ------------------------------------------------------------- event codec


def event_from_dict(doc):
    """One payload through the columnar decoder, as an event object."""
    return decode_events([doc]).events()[0]


def test_event_round_trips_through_dict():
    ev = make_event(
        time=1234,
        severity=Severity.FATAL,
        facility=Facility.KERNEL,
        entry="machine check interrupt",
    )
    assert event_from_dict(event_to_dict(ev)) == ev


def test_event_round_trips_optional_fields():
    ev = RasEvent(
        time=5,
        location="R00-M0-S",
        facility=Facility.MONITOR,
        severity=Severity.WARNING,
        entry_data="fan speed below nominal rpm",
        job_id=NO_JOB,
        event_type="ENV",
        subcategory="midplane_switch",
    )
    doc = event_to_dict(ev)
    assert doc["event_type"] == "ENV"
    assert doc["subcategory"] == "midplane_switch"
    assert "job_id" not in doc  # NO_JOB is the wire default
    assert event_from_dict(doc) == ev


def test_event_dict_is_json_safe():
    doc = event_to_dict(make_event())
    assert event_from_dict(json.loads(json.dumps(doc))) == event_from_dict(doc)


def test_facility_and_severity_names_are_case_insensitive():
    doc = event_to_dict(make_event())
    doc["facility"] = doc["facility"].lower()
    doc["severity"] = doc["severity"].capitalize()
    assert event_from_dict(doc).facility == Facility.KERNEL


@pytest.mark.parametrize(
    "mutation",
    [
        {"time": "yesterday"},
        {"time": True},
        {"time": -1},
        {"location": ""},
        {"location": 7},
        {"facility": "COFFEE"},
        {"severity": "MEH"},
        {"entry_data": None},
        {"job_id": "none"},
        {"subcategory": 3},
        {"event_type": 9},
    ],
)
def test_malformed_event_fields_raise_protocol_error(mutation):
    doc = event_to_dict(make_event())
    doc.update(mutation)
    with pytest.raises(ProtocolError):
        event_from_dict(doc)


def test_non_object_event_payload_rejected():
    with pytest.raises(ProtocolError):
        event_from_dict([1, 2, 3])


# ------------------------------------------------------------- frame codec


def test_frame_round_trip():
    doc = {"op": "ping", "n": 3}
    assert decode_frame(encode_frame(doc)) == doc


def test_encode_frame_is_one_line():
    line = encode_frame({"op": "ping", "text": "a b c"})
    assert line.endswith(b"\n") and line.count(b"\n") == 1


@pytest.mark.parametrize(
    "raw",
    [b"", b"   \n", b"not json\n", b"[1,2]\n", b'"just a string"\n'],
)
def test_malformed_frames_rejected(raw):
    with pytest.raises(ProtocolError):
        decode_frame(raw)


def test_oversized_frame_rejected():
    blob = b'{"op":"ping","pad":"' + b"x" * MAX_LINE_BYTES + b'"}\n'
    with pytest.raises(ProtocolError, match="exceeds"):
        decode_frame(blob)


# ------------------------------------------------------------- requests


def test_decode_event_request():
    req = decode_request(
        encode_frame(
            {"op": "event", "stream": "anl.prod-1", "event": event_to_dict(make_event())}
        )
    )
    assert req.op == "event"
    assert req.stream == "anl.prod-1"
    assert len(req.events) == 1


def test_decode_batch_request_preserves_order():
    events = [make_event(time=t) for t in (10, 20, 30)]
    req = decode_request(
        encode_frame(
            {"op": "batch", "stream": "s", "events": [event_to_dict(e) for e in events]}
        )
    )
    assert [e.time for e in req.events] == [10, 20, 30]


def test_ops_without_payload_decode():
    for op in ("ping", "health", "metrics", "drain"):
        assert decode_request(encode_frame({"op": op})).op == op


@pytest.mark.parametrize(
    "doc",
    [
        {"stream": "s"},  # missing op
        {"op": 5},
        {"op": "mystery"},
        {"op": "event", "stream": "s"},  # missing payload
        {"op": "event", "stream": "bad stream id!", "event": {}},
        {"op": "batch", "stream": "s"},  # missing events
        {"op": "batch", "stream": "s", "events": "nope"},
        {"op": "event", "event": {}},  # missing stream
        {"op": "stats", "stream": "x" * 65},  # over-long stream id
    ],
)
def test_malformed_requests_rejected(doc):
    with pytest.raises(ProtocolError):
        decode_request(encode_frame(doc))


def test_oversized_batch_rejected():
    doc = event_to_dict(make_event())
    frame = {"op": "batch", "stream": "s", "events": [doc] * (MAX_BATCH_EVENTS + 1)}
    with pytest.raises(ProtocolError, match="batch exceeds"):
        decode_request(encode_frame(frame))


# ------------------------------------------------------------- responses


def test_response_shells():
    assert ok_response(accepted=3) == {"ok": True, "accepted": 3}
    assert error_response("boom")["error"] == "boom"
    busy = busy_response(5, 64)
    assert busy["busy"] and not busy["ok"] and busy["accepted"] == 5


def test_warning_to_dict_fields():
    from repro.predictors.base import FailureWarning

    w = FailureWarning(
        issued_at=100,
        horizon_start=400,
        horizon_end=700,
        confidence=0.5,
        source="rule",
        detail="x",
    )
    doc = warning_to_dict(w)
    assert doc == {
        "issued_at": 100,
        "horizon_start": 400,
        "horizon_end": 700,
        "confidence": 0.5,
        "source": "rule",
        "detail": "x",
    }
    json.dumps(doc)  # must be JSON-safe


# ------------------------------------------------------------- HTTP shim


def test_http_request_detection():
    assert is_http_request(b"GET /metrics HTTP/1.1\r\n")
    assert is_http_request(b"HEAD /health HTTP/1.0\r\n")
    assert not is_http_request(b'{"op":"ping"}\n')


def test_http_request_path_strips_query():
    assert http_request_path(b"GET /metrics?pretty=1 HTTP/1.1\r\n") == "/metrics"


def test_http_request_path_rejects_garbage():
    with pytest.raises(ProtocolError):
        http_request_path(b"GET\r\n")


def test_http_response_shape():
    raw = http_response(200, '{"ok":true}\n')
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.0 200 OK")
    assert b"Content-Length: 12" in head
    assert body == b'{"ok":true}\n'
    assert http_response(503, "{}").startswith(b"HTTP/1.0 503")


def test_protocol_version_is_wire_visible():
    assert isinstance(PROTOCOL_VERSION, int) and PROTOCOL_VERSION >= 1
