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
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, TextIO, Union

import numpy as np

from repro.ras.events import NO_JOB, RasEvent
from repro.ras.fields import Facility, Severity
from repro.ras.store import UNCLASSIFIED, EventBatch, EventStore
from repro.util.timeutil import DAY, HOUR, MINUTE, format_bgl_date, format_bgl_timestamp
from repro.util.validation import check_positive


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


#: Canonical facility/severity name -> member.  Lines almost always carry
#: the canonical upper-case name; any other spelling goes through
#: ``from_name``.
_FACILITIES: dict[str, Facility] = {f.name: f for f in Facility}
_SEVERITIES: dict[str, Severity] = {s.name: s for s in Severity}


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


#: Range of the store's int64 time and job-id columns.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

#: A parsed tail, ``(tail id, facility, severity, entry, event_type)``, and
#: the memo from each distinct tail to its parse or its rejection reason;
#: a tail's id is its position in the memo.
_Tail = tuple[int, Facility, Severity, str, str]
_Memo = dict[str, Union[_Tail, str]]


def _parse_tail(tail: str, tail_id: int) -> Union[_Tail, str]:
    """Parse a line tail, ``event_type facility severity [entry ...]``.

    Returns the parsed tail or the reason it rejects its line.  The grammar
    is the same in both dialects; :func:`_reject` turns a REPRO tail short
    of its entry field into "too few fields".
    """
    fields = tail.rstrip("\n").split(" ", 3)
    if len(fields) < 3:
        return "too few fields"
    event_type, facility_name, severity_name = fields[:3]
    try:
        facility = _FACILITIES.get(facility_name)
        if facility is None:
            facility = Facility.from_name(facility_name)
        severity = _SEVERITIES.get(severity_name)
        if severity is None:
            severity = Severity.from_name(severity_name)
    except ValueError as exc:
        return str(exc)
    if len(fields) < 4 or not fields[3]:
        return "empty entry data"
    return tail_id, facility, severity, fields[3], event_type


def _reject(line: str, line_no: int, reason: str) -> LogParseError:
    """The error for a rejected line; "too few fields" outranks every other reason."""
    if line.count(" ") < 8:  # nine fields need eight separators
        reason = "too few fields"
    return LogParseError(line_no, line, reason)


def _parse(
    line: str, line_no: int, tails: _Memo, jobs: dict[str, int]
) -> tuple[int, str, int, _Tail]:
    """Split one line into head and tail; returns ``(time, location, job_id, tail)``.

    The head is ``epoch date location stamp job_id`` (REPRO) or ``tag
    epoch date location stamp location`` (Loghub): a line whose first
    token is an integer is REPRO, otherwise that token is the Loghub alert
    tag.  Each distinct tail, and each distinct REPRO job-id token, is
    parsed once per reader call (the ``tails`` and ``jobs`` memos).  Every
    rule raises :class:`LogParseError`, the first to fail in this order:
    too few fields, ``int()`` epoch, ``int()`` job id, the int64 range of
    both, the tail's facility, severity and non-empty entry, then the
    :class:`RasEvent` invariants time >= 0 and a non-empty location.
    """
    head = line.split(" ", 5)
    try:
        try:
            time = int(head[0])
        except ValueError:
            time, job_id = int(head[1]), NO_JOB
            location, tail = head[3], head[5].partition(" ")[2]
        else:
            job_id = jobs.get(head[4])
            if job_id is None:
                job_id = jobs[head[4]] = int(head[4])
            location, tail = head[2], head[5]
    except (ValueError, IndexError) as exc:
        raise _reject(line, line_no, str(exc)) from None
    if not _INT64_MIN <= time <= _INT64_MAX:
        raise _reject(line, line_no, "epoch out of int64 range")
    if not _INT64_MIN <= job_id <= _INT64_MAX:
        raise _reject(line, line_no, "job id out of int64 range")
    parsed = tails.get(tail)
    if parsed is None:
        parsed = tails[tail] = _parse_tail(tail, len(tails))
    if type(parsed) is str:
        raise _reject(line, line_no, parsed)
    if time < 0:
        raise LogParseError(line_no, line, f"event time must be >= 0, got {time}")
    if not location:
        raise LogParseError(line_no, line, "location must be non-empty")
    return time, location, job_id, parsed


def _event(parsed: tuple[int, str, int, _Tail]) -> RasEvent:
    time, location, job_id, (_, facility, severity, entry, event_type) = parsed
    return RasEvent(
        time=time,
        location=location,
        facility=facility,
        severity=severity,
        entry_data=entry,
        job_id=job_id,
        event_type=event_type,
    )


def parse_line(line: str, line_no: int = 0) -> RasEvent:
    """Parse one log line, auto-detecting the dialect (see :func:`_parse`)."""
    return _event(_parse(line, line_no, {}, {}))


def _iter_parsed(
    source: Union[str, Path, TextIO],
    errors: str,
    stats: ReadStats | None,
    tails: _Memo,
) -> Iterator[tuple[int, str, int, _Tail]]:
    """Parsed good lines of a log, memoizing tails in ``tails``; the one line loop."""
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
    jobs: dict[str, int] = {}
    try:
        for line_no, line in enumerate(fh, start=1):
            stats.lines += 1
            try:
                parsed = _parse(line, line_no, tails, jobs)
            except LogParseError:
                # A blank line has no integer epoch, so it always lands here.
                if not line.strip():
                    continue
                if not skip:
                    raise
                stats.skipped += 1
                continue
            stats.parsed += 1
            yield parsed
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
    for parsed in _iter_parsed(source, errors, stats, {}):
        yield _event(parsed)


def iter_log_batches(
    source: Union[str, Path, TextIO],
    chunk_events: int,
    errors: str = "raise",
    stats: ReadStats | None = None,
) -> Iterator[EventBatch]:
    """:func:`iter_log_lines` as :class:`~repro.ras.store.EventBatch` chunks of
    at most ``chunk_events`` rows, with no :class:`RasEvent` per line."""
    check_positive(chunk_events, "chunk_events")
    rows = (
        (time, location, facility, severity, entry, job_id, event_type, None)
        for time, location, job_id, (_, facility, severity, entry, event_type)
        in _iter_parsed(source, errors, stats, {})
    )
    while chunk := list(islice(rows, chunk_events)):
        yield EventBatch(*map(list, zip(*chunk)))


def read_log(
    source: Union[str, Path, TextIO],
    errors: str = "raise",
    stats: ReadStats | None = None,
):
    """Read a whole log into an :class:`repro.ras.store.EventStore`.

    Lines are parsed straight into column lists, one tail id per line and
    no :class:`RasEvent`; the store is built, time-sorted (stable) and
    placed on the default backend once at the end.  The result equals
    ``EventStore.from_events(iter_log_lines(...))``.
    """
    times: list[int] = []
    location_ids: list[int] = []
    jobs: list[int] = []
    tail_ids: list[int] = []
    # Intern by first appearance: ``setdefault`` hands back the existing id
    # or records the next one.
    locations: dict[str, int] = {}
    tails: _Memo = {}
    for time, location, job_id, tail in _iter_parsed(source, errors, stats, tails):
        times.append(time)
        location_ids.append(locations.setdefault(location, len(locations)))
        jobs.append(job_id)
        tail_ids.append(tail[0])
    # The per-tail table, indexed by tail id; a rejected tail's row is a
    # placeholder no line gathers.  Entries intern in the order of the
    # first accepted line that carries them, as ``from_events`` does.
    table = [t if type(t) is tuple else (0, 0, 0, "", "") for t in tails.values()]
    entries: dict[str, int] = {}
    tail_entry = np.zeros(len(table), dtype=np.int32)
    for tail_id in dict.fromkeys(tail_ids):
        tail_entry[tail_id] = entries.setdefault(table[tail_id][3], len(entries))
    ids = np.asarray(tail_ids, dtype=np.intp)
    return EventStore.from_columns(
        times,
        np.array([t[2] for t in table], dtype=np.int8)[ids],
        np.array([t[1] for t in table], dtype=np.int8)[ids],
        jobs,
        location_ids,
        tail_entry[ids],
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
