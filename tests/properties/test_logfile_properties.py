"""Property tests for the text-log reader and writer.

``read_log`` parses lines straight into store columns and
``iter_log_lines`` streams events, both memoizing each distinct line tail;
the differential tests here hold them to the per-line path
(``parse_line`` then ``EventStore.from_events``) on random files mixing
both dialects with every kind of bad line, in both error modes and on both
store backends.
"""

import io
from dataclasses import astuple

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cache.fingerprint import store_fingerprint
from repro.ras.events import NO_JOB, RasEvent
from repro.ras.fields import Facility, Severity
from repro.ras.logfile import (
    LogDialect,
    LogParseError,
    ReadStats,
    _event,
    _parse,
    format_event,
    iter_log_lines,
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
        ["truncated", "facility", "severity", "negative", "location", "job", "entry", "int64"]
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
    elif kind == "int64":
        # An epoch, or a REPRO job id, that the store's int64 columns cannot hold.
        field = shift if shift or draw(st.booleans()) else 4
        parts[field] = str(draw(st.sampled_from([2**63, 10**22, -(2**63) - 1])))
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
    for n, (kind, line, expected) in enumerate(rows, start=1):
        if kind == "good":
            assert parse_line(line, n) == expected
        elif kind == "bad":
            with pytest.raises(LogParseError):
                parse_line(line, n)
    return _check_readers([line for _, line, _ in rows], trailing_newline)


def _outcomes(lines):
    """Per-line oracle: ``None`` for a blank line, else ``parse_line``'s event or error."""
    out = []
    for n, line in enumerate(lines, start=1):
        if not line.strip():
            out.append(None)
            continue
        try:
            out.append(parse_line(line, n))
        except LogParseError as exc:
            out.append(exc)
    return out


def _read_events(source, **kwargs):
    return list(iter_log_lines(source, **kwargs))


def _check_readers(lines, trailing_newline):
    """``read_log`` and ``iter_log_lines`` against per-line ``parse_line``."""
    text = "".join(line + "\n" for line in lines)
    if not trailing_newline and lines and lines[-1]:
        text = text[:-1]  # an unterminated last line is still one line
    outcomes = _outcomes(lines)
    good = [o for o in outcomes if isinstance(o, RasEvent)]
    n_bad = sum(isinstance(o, LogParseError) for o in outcomes)
    expected = EventStore.from_events(good)
    expected_fp = store_fingerprint(expected)

    stats = ReadStats()
    store = read_log(io.StringIO(text), errors="skip", stats=stats)
    assert store_fingerprint(store) == expected_fp
    assert store.to_events() == expected.to_events()
    assert astuple(stats) == (len(lines), len(good), n_bad)
    stats = ReadStats()
    assert _read_events(io.StringIO(text), errors="skip", stats=stats) == good
    assert astuple(stats) == (len(lines), len(good), n_bad)

    first_bad = next(
        (n for n, o in enumerate(outcomes, start=1) if isinstance(o, LogParseError)), None
    )
    for reader in (read_log, _read_events):
        stats = ReadStats()
        if first_bad is None:
            result = reader(io.StringIO(text), stats=stats)
            if reader is read_log:
                assert store_fingerprint(result) == expected_fp
            else:
                assert result == good
            assert astuple(stats) == (len(lines), len(good), 0)
            continue
        with pytest.raises(LogParseError) as info:
            reader(io.StringIO(text), stats=stats)
        oracle = outcomes[first_bad - 1]
        assert (info.value.line_no, info.value.reason) == (first_bad, oracle.reason)
        good_before = sum(isinstance(o, RasEvent) for o in outcomes[: first_bad - 1])
        assert astuple(stats) == (first_bad, good_before, 0)
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


# --------------------------------------------------------------------- #
# Memo differential: a few tails under many heads
# --------------------------------------------------------------------- #

#: Line tails (``event_type facility severity entry``).  Files draw from
#: this pool, so most lines meet a tail the reader has already parsed and
#: every rule fires on memo hits as well as misses.
TAILS = [
    "RAS KERNEL INFO ddr error",
    "RAS kernel Info ddr error",  # case-insensitive names
    "RAS KERNEL FATAL ddr error",  # the same entry under a second severity
    "APP APP WARNING  two  spaces ",  # the entry keeps its inner and outer spaces
    "RAS NOPE INFO msg",  # unknown facility
    "RAS KERNEL BOGUS msg",  # unknown severity
    "RAS KERNEL INFO",  # REPRO: too few fields; Loghub: empty entry
    "RAS KERNEL INFO ",  # empty entry
    "RAS KERNEL",  # too few fields in both dialects
]

#: Head tokens, good and bad: a negative or int64-overflowing epoch, a
#: non-integer or overflowing job id, an empty location.
HEAD_EPOCHS = ["100", "86400", "0", "-5", "x", str(2**63)]
HEAD_LOCATIONS = ["R00-M0-N00-C00", "R01-M1-N04-I00", ""]
HEAD_JOBS = ["5", "-1", "x17", str(2**63)]
HEAD_TAGS = ["-", "FATAL"]
DATE, STAMP = "1970.01.01", "1970-01-01-00.01.40.000000"


@st.composite
def heads(draw):
    """A REPRO or Loghub head, which the readers never validate against the date."""
    epoch = draw(st.sampled_from(HEAD_EPOCHS))
    location = draw(st.sampled_from(HEAD_LOCATIONS))
    if draw(st.booleans()):
        return f"{epoch} {DATE} {location} {STAMP} {draw(st.sampled_from(HEAD_JOBS))}"
    tag = draw(st.sampled_from(HEAD_TAGS))
    return f"{tag} {epoch} {DATE} {location} {STAMP} {location}"


memo_lines = st.lists(
    st.one_of(
        st.tuples(heads(), st.sampled_from(TAILS)).map(" ".join),
        st.just(""),
    ),
    max_size=40,
)

GOOD_HEAD = f"100 {DATE} R00-M0-N00-C00 {STAMP} 5"
NEGATIVE_HEAD = f"-5 {DATE} R00-M0-N00-C00 {STAMP} 5"
NO_LOCATION_HEAD = f"- 100 {DATE}  {STAMP} "


@pytest.mark.parametrize("backend", ["memory", "columnar"])
@settings(max_examples=80, deadline=None)
@given(lines=memo_lines, trailing_newline=st.booleans())
# A tail first met on rejected lines, then accepted; entry ids follow the
# first accepted line, so "ddr error" must intern after "msg".
@example(
    lines=[
        f"{NEGATIVE_HEAD} RAS KERNEL INFO ddr error",
        f"{NO_LOCATION_HEAD} RAS KERNEL INFO ddr error",
        f"{GOOD_HEAD} RAS KERNEL INFO msg",
        f"{GOOD_HEAD} RAS KERNEL INFO ddr error",
        f"{GOOD_HEAD} RAS KERNEL FATAL ddr error",
    ],
    trailing_newline=True,
)
# One tail, two reasons: too few fields on a REPRO line, empty entry on a
# Loghub line; the memo must not keep the first line's verdict.
@example(
    lines=[f"{GOOD_HEAD} RAS KERNEL INFO", f"- 100 {DATE} R00 {STAMP} R00 RAS KERNEL INFO"],
    trailing_newline=True,
)
def test_tail_memo_matches_per_line_parse(backend, lines, trailing_newline):
    # The readers show only the first bad line's reason; one memo shared
    # across the file must give every line parse_line's outcome.
    tails, jobs = {}, {}
    for n, (line, oracle) in enumerate(zip(lines, _outcomes(lines)), start=1):
        if isinstance(oracle, LogParseError):
            with pytest.raises(LogParseError) as info:
                _parse(line, n, tails, jobs)
            assert (info.value.line_no, info.value.reason) == (n, oracle.reason)
        elif oracle is not None:
            assert _event(_parse(line, n, tails, jobs)) == oracle
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_STORE_BACKEND", backend)
        store = _check_readers(lines, trailing_newline)
    if len(store):
        assert store.backend_kind == backend
