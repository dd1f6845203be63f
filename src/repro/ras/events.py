"""The per-record RAS event object.

:class:`RasEvent` carries exactly the attributes the paper's Table 2 lists:
event type, event time, job id, location, entry data (the free-text
description), facility and severity.  We add ``subcategory``, filled in by the
Phase-1 categorizer (``repro.taxonomy``), because every later phase keys on
it.

For bulk processing the columnar :class:`repro.ras.store.EventStore` is
preferred; ``RasEvent`` is the boundary type used at API edges, in the log
reader/writer and in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.ras.fields import Facility, Severity

#: Job id used for records not attributable to a user job (hardware and
#: service events carry no job in production logs).
NO_JOB: int = -1


@dataclass(frozen=True, slots=True)
class RasEvent:
    """A single RAS record (one line of the log, paper Table 2).

    Attributes
    ----------
    time:
        Event time as integer epoch seconds.  CMCS detects events at
        sub-millisecond granularity but records times at second granularity,
        which is why duplicate records share identical timestamps.
    location:
        Where the event occurred — a hierarchical location code such as
        ``R12-M0-N04-C32`` (rack, midplane, node card, compute chip).  See
        :mod:`repro.bgl.locations`.
    facility:
        The service/hardware component that reported the event.
    severity:
        Ordinal severity; ``FATAL``/``FAILURE`` are the prediction targets.
    entry_data:
        Short free-text description of the event.
    job_id:
        The job that detected the event, or :data:`NO_JOB`.
    event_type:
        The mechanism through which the event was recorded — ``"RAS"`` for
        everything CMCS collects.
    subcategory:
        Taxonomy label assigned during Phase-1 categorization (one of the 101
        subcategories), or ``None`` before classification.
    """

    time: int
    location: str
    facility: Facility
    severity: Severity
    entry_data: str
    job_id: int = NO_JOB
    event_type: str = "RAS"
    subcategory: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"event time must be >= 0, got {self.time}")
        if not self.location:
            raise ValueError("location must be non-empty")

    @property
    def is_fatal(self) -> bool:
        """True if this record is a failure (severity FATAL or FAILURE)."""
        return self.severity.is_fatal

    def with_subcategory(self, subcategory: str) -> "RasEvent":
        """Return a copy labeled with a taxonomy subcategory."""
        return replace(self, subcategory=subcategory)

    def with_time(self, time: int) -> "RasEvent":
        """Return a copy at a different timestamp (used by compressors)."""
        return replace(self, time=time)
