"""Tests for repro.ras.logfile."""

import io

import pytest

from repro.ras.events import NO_JOB
from repro.ras.fields import Facility, Severity
from repro.ras.logfile import (
    LogDialect,
    LogParseError,
    ReadStats,
    format_event,
    iter_log_lines,
    parse_line,
    read_log,
    write_log,
)
from tests.conftest import make_event


def test_repro_dialect_roundtrip():
    ev = make_event(entry="some message with words", job_id=42)
    line = format_event(ev, LogDialect.REPRO)
    back = parse_line(line)
    assert back == ev


def test_loghub_dialect_roundtrip_drops_job():
    ev = make_event(job_id=42)
    line = format_event(ev, LogDialect.LOGHUB)
    back = parse_line(line)
    assert back.job_id == NO_JOB
    assert back.time == ev.time
    assert back.entry_data == ev.entry_data


def test_parse_real_loghub_line():
    line = (
        "- 1117838570 2005.06.03 R02-M1-N00-C12 2005-06-03-15.42.50.675872 "
        "R02-M1-N00-C12 RAS KERNEL INFO instruction cache parity error corrected"
    )
    ev = parse_line(line)
    assert ev.time == 1117838570
    assert ev.location == "R02-M1-N00-C12"
    assert ev.facility is Facility.KERNEL
    assert ev.severity is Severity.INFO
    assert ev.entry_data == "instruction cache parity error corrected"


def test_loghub_alert_tag_preserves_severity():
    ev = make_event(severity=Severity.FATAL, facility=Facility.APP)
    line = format_event(ev, LogDialect.LOGHUB)
    assert line.startswith("FATAL ")
    assert parse_line(line).severity is Severity.FATAL


def test_parse_line_too_few_fields():
    with pytest.raises(LogParseError, match="too few fields"):
        parse_line("1 2 3")


def test_parse_line_bad_severity():
    line = "100 1970.01.01 R00 1970-01-01-00.01.40.000000 5 RAS KERNEL NOPE msg"
    with pytest.raises(LogParseError):
        parse_line(line)


def test_write_and_read_log_file(tmp_path, tiny_store):
    path = tmp_path / "events.log"
    n = write_log(tiny_store.to_events(), path)
    assert n == len(tiny_store)
    store = read_log(path)
    assert len(store) == len(tiny_store)
    assert list(store.times) == list(tiny_store.times)


def test_read_log_skip_errors_counts(tmp_path):
    path = tmp_path / "bad.log"
    good = format_event(make_event())
    path.write_text(f"{good}\nthis is junk\n\n{good}\n")
    stats = ReadStats()
    store = read_log(path, errors="skip", stats=stats)
    assert len(store) == 2
    assert stats.skipped == 1
    assert stats.parsed == 2


def test_read_log_raise_on_error():
    stream = io.StringIO("garbage line with many words but no epoch here ok\n")
    with pytest.raises(LogParseError):
        list(iter_log_lines(stream))


def test_iter_log_lines_invalid_errors_mode():
    with pytest.raises(ValueError):
        list(iter_log_lines(io.StringIO(""), errors="ignore"))


def test_write_log_to_stream(tiny_store):
    buf = io.StringIO()
    write_log(tiny_store.to_events(), buf)
    assert len(buf.getvalue().splitlines()) == len(tiny_store)


def test_mixed_dialect_file(tmp_path):
    ev = make_event()
    path = tmp_path / "mixed.log"
    path.write_text(
        format_event(ev, LogDialect.REPRO)
        + "\n"
        + format_event(ev, LogDialect.LOGHUB)
        + "\n"
    )
    store = read_log(path)
    assert len(store) == 2


# A negative epoch and an empty location field break RasEvent invariants,
# and an epoch or job id outside int64 does not fit the store's columns;
# the reader must report them as parse errors, not crash a skip-mode read.
NEGATIVE_EPOCH = "-5 1970.01.01 R00 1970-01-01-00.00.00.000000 5 RAS KERNEL INFO msg"
EMPTY_LOCATION = "100 1970.01.01  1970-01-01-00.01.40.000000 5 RAS KERNEL INFO msg"
HUGE_EPOCH = "99999999999999999999999 1970.01.01 R00 1970-01-01-00.00.00.000000 5 RAS KERNEL INFO m"
HUGE_JOB = "100 1970.01.01 R00 1970-01-01-00.01.40.000000 9223372036854775808 RAS KERNEL INFO msg"


@pytest.mark.parametrize(
    "line, reason",
    [
        (NEGATIVE_EPOCH, "event time must be >= 0"),
        (EMPTY_LOCATION, "location must be non-empty"),
        (HUGE_EPOCH, "epoch out of int64 range"),
        (HUGE_JOB, "job id out of int64 range"),
    ],
)
def test_invariant_violations_raise_parse_error(line, reason):
    with pytest.raises(LogParseError, match=reason):
        parse_line(line, 3)
    with pytest.raises(LogParseError, match="line 1"):
        read_log(io.StringIO(line + "\n"))


@pytest.mark.parametrize("line", [NEGATIVE_EPOCH, EMPTY_LOCATION, HUGE_EPOCH, HUGE_JOB])
def test_invariant_violations_skipped(line):
    good = format_event(make_event())
    stats = ReadStats()
    store = read_log(io.StringIO(f"{good}\n{line}\n{good}\n"), errors="skip", stats=stats)
    assert len(store) == 2
    assert (stats.lines, stats.parsed, stats.skipped) == (3, 2, 1)

