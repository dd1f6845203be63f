"""Time constants and Blue Gene/L timestamp formatting.

The CMCS repository stores two time representations per record: an epoch
second (used for all arithmetic in this library) and a human-readable
timestamp of the form ``2005-06-03-15.42.50.675872``.  RAS analysis only ever
needs second granularity (the paper notes that although events are *detected*
at sub-millisecond granularity, the recorded event time is in seconds), so the
canonical representation throughout this package is an integer epoch second.
"""

from __future__ import annotations

import datetime as _dt

#: Seconds per minute/hour/day — used for window arithmetic everywhere.
MINUTE: int = 60
HOUR: int = 3600
DAY: int = 86400

_UTC = _dt.timezone.utc


def format_bgl_date(epoch: float) -> str:
    """Format an epoch second as the short ``YYYY.MM.DD`` date field."""
    return _dt.datetime.fromtimestamp(float(epoch), tz=_UTC).strftime("%Y.%m.%d")


def format_bgl_timestamp(epoch: float, microseconds: int = 0) -> str:
    """Format an epoch second as ``YYYY-MM-DD-HH.MM.SS.ffffff``."""
    if not 0 <= microseconds < 1_000_000:
        raise ValueError(f"microseconds out of range: {microseconds}")
    dt = _dt.datetime.fromtimestamp(int(epoch), tz=_UTC)
    return dt.strftime("%Y-%m-%d-%H.%M.%S") + f".{microseconds:06d}"


def format_epoch(epoch: float) -> str:
    """Human-readable UTC rendering used in reports (``YYYY-MM-DD HH:MM:SS``)."""
    return _dt.datetime.fromtimestamp(float(epoch), tz=_UTC).strftime(
        "%Y-%m-%d %H:%M:%S"
    )
