"""Tests for repro.util.timeutil."""

from datetime import datetime, timezone

import pytest

from repro.util.timeutil import (
    DAY,
    HOUR,
    MINUTE,
    format_bgl_date,
    format_bgl_timestamp,
    format_epoch,
)


def test_constants():
    assert MINUTE == 60
    assert HOUR == 60 * MINUTE
    assert DAY == 24 * HOUR


def test_date_roundtrip():
    epoch = int(datetime(2005, 6, 3, tzinfo=timezone.utc).timestamp())
    assert format_bgl_date(epoch) == "2005.06.03"


def test_timestamp_roundtrip():
    epoch = int(datetime(2006, 4, 28, 23, 59, 59, tzinfo=timezone.utc).timestamp())
    assert format_bgl_timestamp(epoch).startswith("2006-04-28-23.59.59")


def test_format_bgl_timestamp_microseconds():
    s = format_bgl_timestamp(0, microseconds=42)
    assert s.endswith(".000042")


def test_format_bgl_timestamp_bad_microseconds():
    with pytest.raises(ValueError):
        format_bgl_timestamp(0, microseconds=1_000_000)


def test_format_epoch_readable():
    assert format_epoch(0) == "1970-01-01 00:00:00"
