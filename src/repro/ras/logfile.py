"""Text serialization of RAS logs.

Two line dialects are supported:

``REPRO`` (this project's canonical format, carries JOB_ID)::

    <epoch> <YYYY.MM.DD> <location> <YYYY-MM-DD-HH.MM.SS.ffffff> <job_id> \\
        <event_type> <facility> <severity> <entry data ...>

``LOGHUB`` (the public Loghub/USENIX BG/L dump format; no JOB_ID field)::

    <alert_tag> <epoch> <YYYY.MM.DD> <location> <YYYY-MM-DD-HH.MM.SS.ffffff> \\
        <location> <event_type> <facility> <severity> <entry data ...>

The reader auto-detects the dialect per line, so mixed files and real public
BG/L dumps both load.  Malformed lines raise :class:`LogParseError` by
default, or are counted and skipped with ``errors="skip"`` — production logs
do contain occasional truncated lines.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, TextIO, Union

import numpy as np

from repro.ras.events import NO_JOB, RasEvent
from repro.ras.fields import Facility, Severity
from repro.util.timeutil import DAY, HOUR, MINUTE, format_bgl_date, format_bgl_timestamp


class LogDialect(enum.Enum):
    """Line format variant."""

    REPRO = "repro"
    LOGHUB = "loghub"


class LogParseError(ValueError):
    """A log line could not be parsed."""

    def __init__(self, line_no: int, line: str, reason: str) -> None:
        super().__init__(f"line {line_no}: {reason}: {line[:120]!r}")
        self.line_no = line_no
        self.line = line
        self.reason = reason


@dataclass
class ReadStats:
    """Bookkeeping from a :func:`read_log` call."""

    lines: int = 0
    parsed: int = 0
    skipped: int = 0


#: Canonical facility/severity name -> id.  Lines almost always carry the
#: canonical upper-case name; any other spelling goes through ``from_name``.
_FACILITY_IDS: dict[str, int] = {f.name: int(f) for f in Facility}
_SEVERITY_IDS: dict[str, int] = {s.name: int(s) for s in Severity}


@lru_cache(maxsize=4096)
def _day_prefixes(day: int) -> tuple[str, str]:
    """``(YYYY.MM.DD, YYYY-MM-DD)`` of the UTC day ``day`` days after the epoch."""
    midnight = day * DAY
    return format_bgl_date(midnight), format_bgl_timestamp(midnight)[:10]


def format_event(event: RasEvent, dialect: LogDialect = LogDialect.REPRO) -> str:
    """Render one event as a log line in the given dialect."""
    day, second = divmod(int(event.time), DAY)
    date, dashed = _day_prefixes(day)
    hour, second = divmod(second, HOUR)
    minute, second = divmod(second, MINUTE)
    stamp = f"{dashed}-{hour:02d}.{minute:02d}.{second:02d}.000000"
    if dialect is LogDialect.REPRO:
        return (
            f"{event.time} {date} {event.location} {stamp} {event.job_id} "
            f"{event.event_type} {event.facility.name} {event.severity.name} "
            f"{event.entry_data}"
        )
    if dialect is LogDialect.LOGHUB:
        tag = "-" if not event.is_fatal else event.severity.name
        return (
            f"{tag} {event.time} {date} {event.location} {stamp} {event.location} "
            f"{event.event_type} {event.facility.name} {event.severity.name} "
            f"{event.entry_data}"
        )
    raise ValueError(f"unknown dialect: {dialect!r}")


def _parse_fields(line: str, line_no: int) -> tuple[int, str, int, int, int, str, str]:
    """Split one log line into field values, auto-detecting the dialect.

    Returns ``(time, location, job_id, facility_id, severity_id,
    entry_data, event_type)``.  A line whose first space-separated token is
    an integer is REPRO dialect (it starts with the epoch); otherwise the
    first token is the Loghub alert tag and the epoch is the second token.
    Facility and severity names are case-insensitive.  Every rule a line
    must meet, the :class:`RasEvent` invariants (time >= 0, non-empty
    location) included, raises :class:`LogParseError`, so ``errors="skip"``
    covers all of them.
    """
    # At most nine separators precede the entry (Loghub); splitting no
    # further keeps the entry's inner spaces as they are.
    parts = line.rstrip("\n").split(" ", 9)
    if len(parts) < 9:
        raise LogParseError(line_no, line, "too few fields")
    try:
        time = int(parts[0])
        is_repro = True
    except ValueError:
        is_repro = False
    try:
        if is_repro:
            location = parts[2]
            job_id = int(parts[4])
            event_type, facility, severity = parts[5:8]
            entry = " ".join(parts[8:])
        else:
            time = int(parts[1])
            location = parts[3]
            job_id = NO_JOB
            event_type, facility, severity = parts[6:9]
            entry = parts[9] if len(parts) > 9 else ""
        facility_id = _FACILITY_IDS.get(facility)
        if facility_id is None:
            facility_id = int(Facility.from_name(facility))
        severity_id = _SEVERITY_IDS.get(severity)
        if severity_id is None:
            severity_id = int(Severity.from_name(severity))
    except ValueError as exc:
        raise LogParseError(line_no, line, str(exc)) from exc
    if not entry:
        raise LogParseError(line_no, line, "empty entry data")
    if time < 0:
        raise LogParseError(line_no, line, f"event time must be >= 0, got {time}")
    if not location:
        raise LogParseError(line_no, line, "location must be non-empty")
    return time, location, job_id, facility_id, severity_id, entry, event_type


def _event(fields: tuple[int, str, int, int, int, str, str]) -> RasEvent:
    time, location, job_id, facility_id, severity_id, entry, event_type = fields
    return RasEvent(
        time=time,
        location=location,
        facility=Facility(facility_id),
        severity=Severity(severity_id),
        entry_data=entry,
        job_id=job_id,
        event_type=event_type,
    )


def parse_line(line: str, line_no: int = 0) -> RasEvent:
    """Parse one log line, auto-detecting the dialect (see :func:`_parse_fields`)."""
    return _event(_parse_fields(line, line_no))


def _iter_fields(
    source: Union[str, Path, TextIO],
    errors: str,
    stats: ReadStats | None,
) -> Iterator[tuple[int, str, int, int, int, str, str]]:
    """Field tuples of the good lines of a log; the one line loop."""
    if errors not in ("raise", "skip"):
        raise ValueError(f"errors must be 'raise' or 'skip', got {errors!r}")
    if stats is None:
        stats = ReadStats()
    own = False
    if isinstance(source, (str, Path)):
        fh: TextIO = open(source, "r", encoding="utf-8")
        own = True
    else:
        fh = source
    skip = errors == "skip"
    try:
        for line_no, line in enumerate(fh, start=1):
            stats.lines += 1
            if not line.strip():
                continue
            try:
                fields = _parse_fields(line, line_no)
            except LogParseError:
                if not skip:
                    raise
                stats.skipped += 1
                continue
            stats.parsed += 1
            yield fields
    finally:
        if own:
            fh.close()


def iter_log_lines(
    source: Union[str, Path, TextIO],
    errors: str = "raise",
    stats: ReadStats | None = None,
) -> Iterator[RasEvent]:
    """Yield events from a path or open text stream, one line at a time.

    Parameters
    ----------
    errors:
        ``"raise"`` (default) raises :class:`LogParseError` on a bad line;
        ``"skip"`` counts it in ``stats`` and continues.
    """
    for fields in _iter_fields(source, errors, stats):
        yield _event(fields)


def read_log(
    source: Union[str, Path, TextIO],
    errors: str = "raise",
    stats: ReadStats | None = None,
):
    """Read a whole log into an :class:`repro.ras.store.EventStore`.

    Lines are parsed straight into column lists and intern tables — no
    per-line :class:`RasEvent` — and the store is built, time-sorted
    (stable) and placed on the default backend once at the end.  The
    result equals ``EventStore.from_events(iter_log_lines(...))``.
    """
    from repro.ras.store import UNCLASSIFIED, EventStore

    times: list[int] = []
    location_ids: list[int] = []
    jobs: list[int] = []
    facilities: list[int] = []
    severities: list[int] = []
    entry_ids: list[int] = []
    # Intern by first appearance: ``setdefault`` hands back the existing id
    # or records the next one.
    locations: dict[str, int] = {}
    entries: dict[str, int] = {}
    for time, location, job_id, facility_id, severity_id, entry, _ in _iter_fields(
        source, errors, stats
    ):
        times.append(time)
        location_ids.append(locations.setdefault(location, len(locations)))
        jobs.append(job_id)
        facilities.append(facility_id)
        severities.append(severity_id)
        entry_ids.append(entries.setdefault(entry, len(entries)))
    return EventStore.from_columns(
        times,
        severities,
        facilities,
        jobs,
        location_ids,
        entry_ids,
        np.full(len(times), UNCLASSIFIED, dtype=np.int32),
        list(locations),
        list(entries),
        [],
    )


def write_log(
    events: Iterable[RasEvent],
    target: Union[str, Path, TextIO],
    dialect: LogDialect = LogDialect.REPRO,
) -> int:
    """Write events as log lines; returns the number of lines written."""
    own = False
    if isinstance(target, (str, Path)):
        fh: TextIO = open(target, "w", encoding="utf-8")
        own = True
    else:
        fh = target
    n = 0
    try:
        for ev in events:
            fh.write(format_event(ev, dialect))
            fh.write("\n")
            n += 1
    finally:
        if own:
            fh.close()
    return n
