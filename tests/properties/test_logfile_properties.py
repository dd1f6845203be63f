"""Property tests for the text-log reader and writer.

``read_log`` parses lines straight into store columns; the differential
test here holds it to the per-line path (``parse_line`` then
``EventStore.from_events``) on random files mixing both dialects with
every kind of bad line, in both error modes and on both store backends.
"""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.fingerprint import store_fingerprint
from repro.ras.events import NO_JOB, RasEvent
from repro.ras.fields import Facility, Severity
from repro.ras.logfile import (
    LogDialect,
    LogParseError,
    ReadStats,
    format_event,
    parse_line,
    read_log,
)
from repro.ras.store import EventStore
from repro.util.timeutil import DAY, format_bgl_date, format_bgl_timestamp

#: 9999-12-31 23:59:59 UTC, the last second ``datetime`` can render.
MAX_EPOCH = 253_402_300_799

epochs = st.one_of(
    st.just(0),
    st.integers(0, MAX_EPOCH),
    # Either side of a UTC midnight.
    st.builds(
        lambda day, off: max(0, day * DAY + off),
        st.integers(0, MAX_EPOCH // DAY),
        st.integers(-2, 2),
    ),
)


@settings(max_examples=300, deadline=None)
@given(epochs, st.sampled_from(list(LogDialect)))
def test_format_event_dates_match_timeutil(epoch, dialect):
    ev = RasEvent(epoch, "R00", Facility.KERNEL, Severity.INFO, "msg")
    parts = format_event(ev, dialect).split(" ")
    shift = 1 if dialect is LogDialect.LOGHUB else 0
    assert parts[1 + shift] == format_bgl_date(epoch)
    assert parts[3 + shift] == format_bgl_timestamp(epoch)


# --------------------------------------------------------------------- #
# Differential: read_log vs parse_line + EventStore.from_events
# --------------------------------------------------------------------- #

WORDS = ["ddr", "error", "", "torus", "link", "failure:", "0x1f", "ok"]

events = st.builds(
    RasEvent,
    time=st.integers(0, 2_000_000_000),
    location=st.sampled_from(["R00-M0-N00-C00", "R00-M1-N04-I00", "R01-M0-S", "UNKNOWN"]),
    facility=st.sampled_from(list(Facility)),
    severity=st.sampled_from(list(Severity)),
    # Joining with single spaces over empty words yields runs of spaces
    # and leading/trailing spaces inside the entry.
    entry_data=st.lists(st.sampled_from(WORDS), min_size=1, max_size=6)
    .map(" ".join)
    .filter(bool),
    job_id=st.integers(-1, 10**6),
    event_type=st.sampled_from(["RAS", "APP"]),
)


def _recase(token: str, how: str) -> str:
    return {"upper": token, "lower": token.lower(), "title": token.title()}[how]


@st.composite
def good_lines(draw):
    """A valid line and the event it must parse to."""
    ev = draw(events)
    dialect = draw(st.sampled_from(list(LogDialect)))
    parts = format_event(ev, dialect).split(" ")
    shift = 1 if dialect is LogDialect.LOGHUB else 0
    how = draw(st.sampled_from(["upper", "lower", "title"]))
    parts[6 + shift] = _recase(parts[6 + shift], how)
    parts[7 + shift] = _recase(parts[7 + shift], how)
    if dialect is LogDialect.LOGHUB:
        ev = RasEvent(ev.time, ev.location, ev.facility, ev.severity,
                      ev.entry_data, NO_JOB, ev.event_type)
    return " ".join(parts), ev


@st.composite
def bad_lines(draw):
    """A line the reader must reject with LogParseError."""
    line, _ = draw(good_lines())
    parts = line.split(" ")
    shift = 0 if parts[0].isdigit() else 1
    kind = draw(st.sampled_from(
        ["truncated", "facility", "severity", "negative", "location", "job", "entry"]
    ))
    if kind == "truncated":
        return " ".join(parts[: draw(st.integers(1, 8))])
    if kind == "facility":
        parts[6 + shift] = "NOPE"
    elif kind == "severity":
        parts[7 + shift] = "BOGUS"
    elif kind == "negative":
        parts[shift] = "-5"
    elif kind == "location":
        parts[2 + shift] = ""
    elif kind == "job":
        # A non-integer job id (REPRO), or an epoch that is not one (Loghub).
        parts[4 if shift == 0 else 1] = "x17"
    else:
        parts = parts[: 8 + shift] + [""]
    return " ".join(parts)


# (kind, line, expected event or None)
file_lines = st.lists(
    st.one_of(
        good_lines().map(lambda le: ("good", le[0], le[1])),
        bad_lines().map(lambda line: ("bad", line, None)),
        st.sampled_from(["", "   ", "\t"]).map(lambda line: ("blank", line, None)),
    ),
    max_size=30,
)


def _check_file(rows, trailing_newline):
    text = "".join(line + "\n" for _, line, _ in rows)
    if not trailing_newline and rows and rows[-1][1]:
        text = text[:-1]  # an unterminated last line is still one line
    good = []
    for n, (kind, line, expected) in enumerate(rows, start=1):
        if kind == "good":
            good.append(parse_line(line, n))
            assert good[-1] == expected
        elif kind == "bad":
            with pytest.raises(LogParseError):
                parse_line(line, n)
    expected_fp = store_fingerprint(EventStore.from_events(good))

    stats = ReadStats()
    store = read_log(io.StringIO(text), errors="skip", stats=stats)
    assert store_fingerprint(store) == expected_fp
    assert store.to_events() == EventStore.from_events(good).to_events()
    n_bad = sum(kind == "bad" for kind, _, _ in rows)
    assert (stats.lines, stats.parsed, stats.skipped) == (len(rows), len(good), n_bad)

    stats = ReadStats()
    first_bad = next((n for n, row in enumerate(rows, start=1) if row[0] == "bad"), None)
    if first_bad is None:
        assert store_fingerprint(read_log(io.StringIO(text), stats=stats)) == expected_fp
        assert (stats.lines, stats.parsed, stats.skipped) == (len(rows), len(good), 0)
    else:
        with pytest.raises(LogParseError) as info:
            read_log(io.StringIO(text), stats=stats)
        assert info.value.line_no == first_bad
        good_before = sum(kind == "good" for kind, _, _ in rows[: first_bad - 1])
        assert (stats.lines, stats.parsed, stats.skipped) == (first_bad, good_before, 0)
    return store


@pytest.mark.parametrize("backend", ["memory", "columnar"])
@settings(max_examples=60, deadline=None)
@given(rows=file_lines, trailing_newline=st.booleans())
def test_read_log_matches_per_line_parse(backend, rows, trailing_newline):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_STORE_BACKEND", backend)
        store = _check_file(rows, trailing_newline)
    if len(store):
        assert store.backend_kind == backend
