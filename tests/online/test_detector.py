"""Tests for repro.online (the chunk-at-a-time session)."""

import math

import pytest

from repro.meta.stacked import MetaLearner
from repro.online.detector import OnlineSession
from repro.ras.fields import Severity
from repro.ras.store import EventStore
from repro.taxonomy.classifier import TaxonomyClassifier
from repro.util.timeutil import MINUTE
from tests.conftest import make_event


def _classified(*events):
    return TaxonomyClassifier().classify_store(EventStore.from_events(events))


@pytest.fixture(scope="module")
def fitted_meta(anl_events):
    cut = int(len(anl_events) * 0.7)
    return (
        MetaLearner(prediction_window=30 * MINUTE, rule_window=15 * MINUTE)
        .fit(anl_events.select(slice(0, cut))),
        anl_events.select(slice(cut, len(anl_events))),
    )


def test_online_equals_offline(fitted_meta):
    """Streaming one event per chunk reproduces batch predict() exactly."""
    meta, test = fitted_meta
    offline = meta.predict(test)

    session = OnlineSession(meta)
    online = []
    for chunk in test.iter_chunks(1):
        online.extend(session.process_store(chunk))

    assert len(online) == len(offline)
    for a, b in zip(online, offline):
        assert (a.issued_at, a.horizon_start, a.horizon_end, a.detail) == (
            b.issued_at, b.horizon_start, b.horizon_end, b.detail
        )
        assert a.confidence == pytest.approx(b.confidence)
    assert session.stats.events == len(test)


def test_online_requires_fitted():
    with pytest.raises(ValueError, match="fitted"):
        OnlineSession(MetaLearner())


def test_online_rejects_time_travel(fitted_meta):
    meta, test = fitted_meta
    session = OnlineSession(meta)
    session.process_store(_classified(make_event(time=1_200_000_000)))
    with pytest.raises(ValueError, match="time order"):
        session.process_store(_classified(make_event(time=1_199_999_000)))


def test_online_handles_unseen_label(fitted_meta):
    """Text the catalog does not match, and a label the model never saw,
    must not crash: both count as the fallback label."""
    meta, _ = fitted_meta
    session = OnlineSession(meta)
    unmatched = _classified(
        make_event(time=1_200_000_000, entry="never seen before text 42")
    )
    unknown = EventStore.from_events_in_memory(
        [make_event(time=1_200_000_001).with_subcategory("never-seen-label")]
    )
    assert session.process_store(unmatched) == []
    assert session.process_store(unknown) == []


def test_session_counts_consistent(fitted_meta):
    meta, test = fitted_meta
    session = OnlineSession(meta)
    session.process_store(test)
    stats = session.finish()

    assert stats.events == len(test)
    assert stats.failures == len(test.fatal_events())
    assert stats.caught_failures + stats.missed_failures == stats.failures
    assert stats.hits + stats.false_alarms == stats.warnings
    assert 0.0 <= stats.precision_so_far <= 1.0
    assert 0.0 <= stats.recall_so_far <= 1.0
    assert len(stats.lead_seconds) == stats.caught_failures
    assert all(l >= 0 for l in stats.lead_seconds)


def test_session_matches_batch_metrics(fitted_meta):
    """Causal resolution agrees with the offline matcher."""
    from repro.evaluation.matching import match_warnings

    meta, test = fitted_meta
    session = OnlineSession(meta)
    session.process_store(test)
    stats = session.finish()

    offline = match_warnings(meta.predict(test), test).metrics
    assert stats.warnings == offline.n_warnings
    assert stats.hits == offline.tp_warnings
    assert stats.caught_failures == offline.covered_fatals


def test_session_hit_and_false_alarm_lifecycle(fitted_meta):
    """Hand-driven scenario: one warning hits, one expires as false alarm."""
    meta, _ = fitted_meta
    session = OnlineSession(meta)
    base = 1_300_000_000

    # Drive a storm: two network fatals -> statistical warning at the 2nd.
    net = "uncorrectable torus error: retransmission limit exceeded"
    session.process_store(
        _classified(make_event(time=base, severity=Severity.FAILURE, entry=net))
    )
    raised = session.process_store(_classified(
        make_event(time=base + 10 * MINUTE, severity=Severity.FAILURE, entry=net)
    ))
    assert len(raised) == 1

    # A third failure inside the horizon: warning resolves as hit.
    session.process_store(_classified(
        make_event(time=base + 25 * MINUTE, severity=Severity.FAILURE, entry=net)
    ))
    stats = session.finish()
    assert stats.hits >= 1
    assert stats.caught_failures >= 1
    assert not math.isnan(stats.mean_lead)


def test_empty_session_stats(fitted_meta):
    meta, _ = fitted_meta
    stats = OnlineSession(meta).finish()
    assert stats.precision_so_far == 1.0
    assert stats.recall_so_far == 1.0
    assert math.isnan(stats.mean_lead)
