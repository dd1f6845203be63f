"""Tests for repro.online.resolution (heap-based warning resolution).

The contract is *bit-identical semantics* to the seed's deque implementation
— a faithful copy of which lives in ``tests/oracles.py`` — plus a complexity
bound: resolution work must stay linear in stream length even with a large
pending backlog (the deque version was quadratic).
"""

from __future__ import annotations

import pytest

from repro.online.resolution import SessionStats, WarningResolver
from repro.predictors.base import FailureWarning
from repro.util.rng import as_generator
from tests.oracles import LegacyDequeResolver


def drive(resolver: WarningResolver, stream) -> SessionStats:
    """Run a (time, is_fatal, raised) stream through the heap resolver."""
    for now, is_fatal, raised in stream:
        resolver.advance(now)
        resolver.stats.events += 1
        if is_fatal:
            resolver.observe_failure(now)
        for w in raised:
            resolver.add(w)
    return resolver.finalize()


def drive_legacy(stream) -> SessionStats:
    legacy = LegacyDequeResolver()
    for now, is_fatal, raised in stream:
        legacy.process(now, is_fatal, raised)
    return legacy.finish()


def warn(t: int, start: int, end: int, detail: str = "w") -> FailureWarning:
    return FailureWarning(
        issued_at=t,
        horizon_start=start,
        horizon_end=end,
        confidence=0.5,
        source="test",
        detail=detail,
    )


def random_stream(seed: int, n: int = 400):
    """A seeded stream engineered to hit horizon-boundary ties often.

    Times advance by 0..3 seconds (repeats included); horizons are short,
    so failures frequently land exactly on ``horizon_start`` or
    ``horizon_end`` and expiries frequently tie with arrivals.
    """
    rng = as_generator(seed)
    t = 1000
    stream = []
    for i in range(n):
        t += int(rng.integers(0, 4))
        raised = []
        if rng.random() < 0.45:
            start = t + 1 + int(rng.integers(0, 3))
            end = start + int(rng.integers(0, 8))
            raised.append(warn(t, start, end, f"w{i}"))
        stream.append((t, bool(rng.random() < 0.2), raised))
    return stream


@pytest.mark.parametrize("seed", range(8))
def test_matches_legacy_on_random_streams(seed):
    stream = random_stream(seed)
    assert drive(WarningResolver(), stream) == drive_legacy(stream)


def test_failure_at_horizon_end_tie_is_a_hit():
    """A failure at exactly ``horizon_end`` is covered (closed interval)."""
    stream = [
        (100, False, [warn(100, 101, 105)]),
        (105, True, []),
        (200, False, []),
    ]
    stats = drive(WarningResolver(), stream)
    assert stats == drive_legacy(stream)
    assert stats.hits == 1 and stats.caught_failures == 1
    assert stats.lead_seconds == [5]


def test_failure_at_horizon_start_tie_is_a_hit():
    """A failure at exactly ``horizon_start`` is covered."""
    stream = [
        (100, False, [warn(100, 103, 110)]),
        (103, True, []),
        (200, False, []),
    ]
    stats = drive(WarningResolver(), stream)
    assert stats == drive_legacy(stream)
    assert stats.caught_failures == 1


def test_failure_just_past_horizon_end_is_missed():
    stream = [
        (100, False, [warn(100, 101, 105)]),
        (106, True, []),
        (200, False, []),
    ]
    stats = drive(WarningResolver(), stream)
    assert stats == drive_legacy(stream)
    assert stats.hits == 0 and stats.false_alarms == 1
    assert stats.missed_failures == 1


def test_failure_before_horizon_start_not_covered():
    """A warning whose horizon has not opened yet does not cover a failure."""
    stream = [
        (100, False, [warn(100, 105, 110)]),
        (103, True, []),
        (200, False, []),
    ]
    stats = drive(WarningResolver(), stream)
    assert stats == drive_legacy(stream)
    assert stats.missed_failures == 1
    # ... but the warning itself is then a hit only if a later failure lands.
    assert stats.false_alarms == 1


def test_earliest_covering_warning_anchors_lead_time():
    stream = [
        (100, False, [warn(100, 101, 300, "early")]),
        (150, False, [warn(150, 151, 300, "late")]),
        (200, True, []),
        (400, False, []),
    ]
    stats = drive(WarningResolver(), stream)
    assert stats == drive_legacy(stream)
    assert stats.lead_seconds == [100]  # anchored to the *early* warning
    assert stats.hits == 2


def test_one_failure_marks_all_covering_warnings_hit():
    stream = [
        (100, False, [warn(100, 101, 200, "a"), warn(100, 101, 150, "b")]),
        (120, True, []),
        (300, False, []),
    ]
    stats = drive(WarningResolver(), stream)
    assert stats == drive_legacy(stream)
    assert stats.hits == 2 and stats.false_alarms == 0
    assert stats.caught_failures == 1


def test_finalize_resolves_everything_pending():
    resolver = WarningResolver()
    resolver.advance(100)
    resolver.stats.events += 1
    resolver.add(warn(100, 101, 10**9))
    assert resolver.pending_count == 1
    stats = resolver.finalize()
    assert resolver.pending_count == 0
    assert stats.false_alarms == 1


def test_resolution_work_stays_sublinear_in_backlog():
    """Total resolution ops grow linearly with stream length, not with the
    pending backlog — the regression the heap rewrite exists to prevent.

    Every event adds a long-horizon warning, so the backlog grows without
    bound; per-event work must stay O(log P).  The deque implementation did
    O(P) per event (quadratic total); a reintroduction would blow the
    per-event ops ceiling immediately.
    """

    def total_ops(n: int) -> int:
        resolver = WarningResolver()
        for i in range(n):
            t = 1000 + i
            resolver.advance(t)
            if i % 100 == 99:
                resolver.observe_failure(t)
            resolver.add(warn(t, t + 1, t + 10 * n))
        resolver.finalize()
        return resolver.resolution_ops

    small, large = total_ops(1000), total_ops(4000)
    # Linear scaling: 4x the events => ~4x the ops (quadratic would be ~16x).
    assert large <= 6 * small
    # Absolute ceiling: a handful of heap ops per event, despite the
    # ever-growing backlog.
    assert large <= 20 * 4000


def test_merge_accumulates_all_counters():
    a = SessionStats(events=2, failures=1, warnings=3, hits=1,
                     false_alarms=1, caught_failures=1, missed_failures=0,
                     lead_seconds=[10.0])
    b = SessionStats(events=5, failures=2, warnings=1, hits=0,
                     false_alarms=1, caught_failures=0, missed_failures=2,
                     lead_seconds=[3.0])
    merged = SessionStats().merge(a)
    assert merged.merge(b) is merged
    assert merged.events == 7 and merged.failures == 3
    assert merged.warnings == 4 and merged.hits == 1
    assert merged.false_alarms == 2
    assert merged.caught_failures == 1 and merged.missed_failures == 2
    assert merged.lead_seconds == [10.0, 3.0]
