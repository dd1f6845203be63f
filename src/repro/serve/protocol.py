"""Wire protocol of the live ingestion daemon (:mod:`repro.serve.daemon`).

Frames are newline-delimited JSON ("NDJSON"): the client writes one JSON
object per line, the server answers with one JSON object per line, on one
long-lived TCP connection.  The codec here is deliberately pure — no
asyncio, no sockets — so every encode/decode path is unit-testable and the
daemon's network layer stays a thin shell around it.

Request frames (``op`` selects the verb)::

    {"op": "event",  "stream": "anl-prod", "event": {...}}
    {"op": "batch",  "stream": "anl-prod", "events": [{...}, ...]}
    {"op": "stats",  "stream": "anl-prod"}      # per-stream counters
    {"op": "warnings", "stream": "anl-prod"}    # drain the warning ring
    {"op": "health"} / {"op": "metrics"}        # the scrape endpoints
    {"op": "drain"} / {"op": "ping"}

Event payloads carry the RAS attributes of paper Table 2 (``time``,
``location``, ``facility``, ``severity``, ``entry_data``, optional
``job_id``/``event_type``/``subcategory``).  Responses are
``{"ok": true, ...}`` on success, ``{"ok": false, "error": ...}`` on a
protocol violation and ``{"ok": false, "busy": true, "accepted": k}`` when
backpressure rejects part of a batch (the producer retries the unsent
tail).  Malformed input raises :class:`ProtocolError` — never a bare
``KeyError``/``ValueError`` — so the daemon can turn any bad frame into a
clean error response without dropping the connection.

The same port also answers plain ``GET /metrics``, ``GET /health`` and
``GET /drain`` HTTP requests (detected by the request line), so ``curl``
and scrape jobs need no custom client; see ``docs/operations.md`` for the
full contract.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Optional, Union

from repro.predictors.base import FailureWarning
from repro.ras.events import NO_JOB, RasEvent
from repro.ras.fields import Facility, Severity
from repro.ras.store import EventBatch

#: Bumped on any wire-visible change; echoed by ``ping``/``health``.
PROTOCOL_VERSION = 1
#: Hard cap on one frame line (bytes); longer lines are a protocol error.
MAX_LINE_BYTES = 1 << 20
#: Hard cap on events per ``batch`` frame.
MAX_BATCH_EVENTS = 4096

#: Every request verb the daemon understands.
OPS = frozenset(
    {"event", "batch", "stats", "warnings", "metrics", "health", "drain", "ping"}
)

#: Stream ids are path/metric-label safe: short, printable, no whitespace.
_STREAM_RE = re.compile(r"^[A-Za-z0-9._\-]{1,64}$")

#: HTTP paths the daemon serves next to the line protocol.
HTTP_PATHS = ("/metrics", "/health", "/drain")


class ProtocolError(ValueError):
    """A frame violated the wire protocol (malformed, unknown, oversized)."""


# --------------------------------------------------------------------- #
# Event / warning payload codecs
# --------------------------------------------------------------------- #


def event_to_dict(event: RasEvent) -> dict[str, Any]:
    """JSON-ready payload for one RAS event (Table-2 attributes)."""
    doc: dict[str, Any] = {
        "time": event.time,
        "location": event.location,
        "facility": event.facility.name,
        "severity": event.severity.name,
        "entry_data": event.entry_data,
    }
    if event.job_id != NO_JOB:
        doc["job_id"] = event.job_id
    if event.event_type != "RAS":
        doc["event_type"] = event.event_type
    if event.subcategory is not None:
        doc["subcategory"] = event.subcategory
    return doc


def _require_str(doc: dict, key: str) -> str:
    value = doc.get(key)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"event field {key!r} must be a non-empty string")
    return value


def _require_int(doc: dict, key: str, default: Optional[int] = None) -> int:
    value = doc.get(key, default)
    # bool is an int subclass; `true` is not a timestamp.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"event field {key!r} must be an integer")
    return value


def _check_rows(payload: list) -> None:
    """Raise the :class:`ProtocolError` of the first malformed event, or
    return when every event is well formed.

    The per-event checks, in payload order and field order: they name the
    error once a column check has found one, and build nothing.  The column
    pass in :func:`decode_events` must reject every payload this function
    rejects; ``test_decode_events_matches_per_event_oracle`` pins that.
    """
    for doc in payload:
        if not isinstance(doc, dict):
            raise ProtocolError("event payload must be a JSON object")
        time = _require_int(doc, "time")
        _require_str(doc, "location")
        _require_str(doc, "entry_data")
        facility_name = _require_str(doc, "facility").upper()
        severity_name = _require_str(doc, "severity").upper()
        if facility_name not in Facility.__members__:
            raise ProtocolError(f"unknown facility {facility_name!r}")
        if severity_name not in Severity.__members__:
            raise ProtocolError(f"unknown severity {severity_name!r}")
        subcategory = doc.get("subcategory")
        if subcategory is not None and not isinstance(subcategory, str):
            raise ProtocolError("event field 'subcategory' must be a string")
        if not isinstance(doc.get("event_type", "RAS"), str):
            raise ProtocolError("event field 'event_type' must be a string")
        _require_int(doc, "job_id", NO_JOB)
        if time < 0:  # RasEvent's own invariant
            raise ProtocolError(f"event time must be >= 0, got {time}")


_INT, _STR, _OPTIONAL_STR = {int}, {str}, {str, type(None)}


def decode_events(payload: list) -> EventBatch:
    """Decode event payloads straight into columns, in payload order; the
    first malformed one raises :class:`ProtocolError`.

    Each field is gathered as one column and checked by C-level passes over
    it (exact types, ``min``, ``all``, the enums' upper-case member names,
    which senders emit).  Only a payload those passes reject is walked event
    by event: the row checks raise its first malformed event's error, or
    pass it when it was well formed after all (``int``/``str`` subclasses,
    names in another casing).
    """
    if not payload:
        return EventBatch()
    if not set(map(type, payload)) <= {dict}:
        _check_rows(payload)
    try:
        times = [doc["time"] for doc in payload]
        locations = [doc["location"] for doc in payload]
        facilities = [doc["facility"] for doc in payload]
        severities = [doc["severity"] for doc in payload]
        entries = [doc["entry_data"] for doc in payload]
    except KeyError:  # a required field is missing
        _check_rows(payload)
        raise
    jobs = [doc.get("job_id", NO_JOB) for doc in payload]
    event_types = [doc.get("event_type", "RAS") for doc in payload]
    subcats = [doc.get("subcategory") for doc in payload]
    if not (
        set(map(type, chain(times, jobs))) <= _INT and min(times) >= 0
        and set(map(type, chain(locations, entries, event_types))) <= _STR
        and all(locations) and all(entries)
        and set(map(type, subcats)) <= _OPTIONAL_STR
    ):
        _check_rows(payload)
    try:
        facility_col = list(map(Facility.__members__.__getitem__, facilities))
        severity_col = list(map(Severity.__members__.__getitem__, severities))
    except (KeyError, TypeError):  # not upper case, or no name at all
        _check_rows(payload)
        facility_col = [Facility[name.upper()] for name in facilities]
        severity_col = [Severity[name.upper()] for name in severities]
    return EventBatch(
        times, locations, facility_col, severity_col, entries, jobs, event_types, subcats
    )


def warning_to_dict(warning: FailureWarning) -> dict[str, Any]:
    """JSON-ready payload for one emitted failure warning."""
    return {
        "issued_at": warning.issued_at,
        "horizon_start": warning.horizon_start,
        "horizon_end": warning.horizon_end,
        "confidence": warning.confidence,
        "source": warning.source,
        "detail": warning.detail,
    }


# --------------------------------------------------------------------- #
# Frame codec
# --------------------------------------------------------------------- #


def encode_frame(doc: dict[str, Any]) -> bytes:
    """One request/response object as a newline-terminated JSON line."""
    return json.dumps(doc, separators=(",", ":"), sort_keys=True).encode() + b"\n"


def decode_frame(data: Union[bytes, str]) -> dict[str, Any]:
    """Parse one line into a JSON object (the shared request/response shell)."""
    if isinstance(data, str):
        data = data.encode()
    if len(data) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"frame exceeds {MAX_LINE_BYTES} bytes ({len(data)} received)"
        )
    text = data.strip()
    if not text:
        raise ProtocolError("empty frame")
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ProtocolError("frame must be a JSON object")
    return doc


@dataclass(frozen=True)
class Request:
    """One decoded, validated client request."""

    op: str
    stream: str = ""
    batch: EventBatch = field(default_factory=EventBatch)

    @property
    def events(self) -> tuple[RasEvent, ...]:
        """The batch as event objects, built on each access."""
        return tuple(self.batch.events())


def decode_request(data: Union[bytes, str]) -> Request:
    """Decode and validate one request line into a :class:`Request`."""
    doc = decode_frame(data)
    op = doc.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request is missing the 'op' field")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {sorted(OPS)}")

    stream = doc.get("stream", "")
    if op in ("event", "batch") or stream:
        if not isinstance(stream, str) or not _STREAM_RE.match(stream):
            raise ProtocolError(
                "'stream' must match [A-Za-z0-9._-]{1,64}"
            )

    batch = EventBatch()
    if op == "event":
        if "event" not in doc:
            raise ProtocolError("'event' op requires an 'event' payload")
        batch = decode_events([doc["event"]])
    elif op == "batch":
        payload = doc.get("events")
        if not isinstance(payload, list):
            raise ProtocolError("'batch' op requires an 'events' array")
        if len(payload) > MAX_BATCH_EVENTS:
            raise ProtocolError(
                f"batch exceeds {MAX_BATCH_EVENTS} events ({len(payload)} sent)"
            )
        batch = decode_events(payload)
    return Request(op=op, stream=stream, batch=batch)


# --------------------------------------------------------------------- #
# Response helpers
# --------------------------------------------------------------------- #


def ok_response(**fields: Any) -> dict[str, Any]:
    """A success response shell."""
    return {"ok": True, **fields}


def error_response(reason: str, **fields: Any) -> dict[str, Any]:
    """A protocol/state error response shell (connection stays usable)."""
    return {"ok": False, "error": reason, **fields}


def busy_response(accepted: int, queue_depth: int) -> dict[str, Any]:
    """The backpressure response: retry the unsent tail after a pause."""
    return {
        "ok": False,
        "busy": True,
        "accepted": accepted,
        "queue_depth": queue_depth,
    }


# --------------------------------------------------------------------- #
# Minimal HTTP bridging (GET-only scrape endpoints on the same port)
# --------------------------------------------------------------------- #

_HTTP_STATUS = {200: "OK", 404: "Not Found", 503: "Service Unavailable"}


def is_http_request(line: bytes) -> bool:
    """True if the first line of a connection looks like an HTTP request."""
    return line.startswith((b"GET ", b"HEAD "))


def http_request_path(line: bytes) -> str:
    """The request path of an HTTP request line (query string stripped)."""
    parts = line.decode("ascii", errors="replace").split()
    if len(parts) < 2:
        raise ProtocolError("malformed HTTP request line")
    return parts[1].partition("?")[0]


def http_response(status: int, body: str) -> bytes:
    """A complete minimal HTTP/1.0 response (server closes after writing)."""
    payload = body.encode()
    head = (
        f"HTTP/1.0 {status} {_HTTP_STATUS.get(status, 'Error')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + payload
