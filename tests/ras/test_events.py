"""Tests for repro.ras.events."""

import pytest

from repro.ras.events import NO_JOB, RasEvent
from repro.ras.fields import Facility, Severity
from tests.conftest import make_event


def test_defaults():
    ev = make_event()
    assert ev.event_type == "RAS"
    assert ev.subcategory is None


def test_is_fatal_property():
    assert make_event(severity=Severity.FAILURE).is_fatal
    assert not make_event(severity=Severity.ERROR).is_fatal


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        make_event(time=-1)


def test_empty_location_rejected():
    with pytest.raises(ValueError):
        RasEvent(
            time=1,
            location="",
            facility=Facility.APP,
            severity=Severity.INFO,
            entry_data="x",
        )


def test_with_subcategory_does_not_mutate():
    ev = make_event()
    labeled = ev.with_subcategory("timerInterruptInfo")
    assert ev.subcategory is None
    assert labeled.subcategory == "timerInterruptInfo"


def test_subcategory_excluded_from_equality():
    a = make_event().with_subcategory("x")
    b = make_event().with_subcategory("y")
    assert a == b


def test_with_time():
    assert make_event(time=5).with_time(9).time == 9


def test_no_job_constant():
    assert NO_JOB == -1
