"""Tests for repro.predictors.rulebased."""

import pytest

from repro.predictors.rulebased import RuleBasedPredictor
from repro.ras.fields import Severity
from repro.ras.store import EventStore
from repro.taxonomy.classifier import TaxonomyClassifier
from repro.util.timeutil import MINUTE
from tests.conftest import make_event


def _labeled(events):
    return TaxonomyClassifier().classify_store(EventStore.from_events(events))


def _chain(t0, with_head=True):
    """One watchdog+assert -> kernelPanic chain instance."""
    events = [
        make_event(time=t0, severity=Severity.WARNING,
                   entry="watchdog timer approaching expiration"),
        make_event(time=t0 + 60, severity=Severity.ERROR,
                   entry="kernel assertion failed: internal consistency check"),
    ]
    if with_head:
        events.append(
            make_event(time=t0 + 180, severity=Severity.FAILURE,
                       entry="kernel panic: unrecoverable condition detected")
        )
    return events


@pytest.fixture
def train_store():
    events = []
    for k in range(30):
        events.extend(_chain(10_000 + k * 7200, with_head=True))
    return _labeled(events)


def test_fit_mines_planted_rule(train_store):
    rb = RuleBasedPredictor(rule_window=15 * MINUTE).fit(train_store)
    assert rb.ruleset is not None and len(rb.ruleset) >= 1
    top = rb.ruleset[0]
    names = {rb.ruleset.item_names[i] for i in top.body}
    assert names == {"watchdogTimerWarning", "kernelAssertError"}
    assert top.confidence == pytest.approx(1.0)


def test_no_precursor_fraction_zero_for_pure_chains(train_store):
    rb = RuleBasedPredictor(rule_window=15 * MINUTE).fit(train_store)
    assert rb.no_precursor_fraction == 0.0


def test_predict_fires_on_body_completion(train_store):
    rb = RuleBasedPredictor(
        rule_window=15 * MINUTE, prediction_window=10 * MINUTE
    ).fit(train_store)
    test = _labeled(_chain(500_000, with_head=True))
    warnings = rb.predict(test)
    assert len(warnings) == 1
    w = warnings[0]
    assert w.issued_at == 500_060  # the completing (second) body item
    assert w.source == "rule"
    assert "kernelPanicFailure" in w.detail


def test_predict_no_warning_without_full_body(train_store):
    rb = RuleBasedPredictor(rule_window=15 * MINUTE).fit(train_store)
    test = _labeled([
        make_event(time=500_000, severity=Severity.WARNING,
                   entry="watchdog timer approaching expiration"),
    ])
    assert rb.predict(test) == []


def test_predict_window_eviction(train_store):
    """Body items farther apart than the prediction window never complete."""
    rb = RuleBasedPredictor(
        rule_window=15 * MINUTE, prediction_window=5 * MINUTE
    ).fit(train_store)
    test = _labeled([
        make_event(time=500_000, severity=Severity.WARNING,
                   entry="watchdog timer approaching expiration"),
        make_event(time=500_000 + 6 * MINUTE, severity=Severity.ERROR,
                   entry="kernel assertion failed: internal consistency check"),
    ])
    assert rb.predict(test) == []


def test_predict_dedup_while_active(train_store):
    """A matched rule is one prediction while its horizon is active."""
    rb = RuleBasedPredictor(
        rule_window=15 * MINUTE, prediction_window=30 * MINUTE
    ).fit(train_store)
    events = _chain(500_000, with_head=False) + _chain(
        500_000 + 5 * MINUTE, with_head=False
    )
    warnings = rb.predict(_labeled(events))
    assert len(warnings) == 1


def test_predict_refires_after_horizon(train_store):
    rb = RuleBasedPredictor(
        rule_window=15 * MINUTE, prediction_window=5 * MINUTE
    ).fit(train_store)
    events = _chain(500_000, with_head=False) + _chain(
        500_000 + 3600, with_head=False
    )
    warnings = rb.predict(_labeled(events))
    assert len(warnings) == 2


def test_fatal_events_do_not_enter_window(train_store):
    """Fatal arrivals must not contribute items to rule bodies."""
    rb = RuleBasedPredictor(rule_window=15 * MINUTE).fit(train_store)
    test = _labeled([
        make_event(time=500_000, severity=Severity.FAILURE,
                   entry="kernel panic: unrecoverable condition detected"),
    ])
    assert rb.predict(test) == []


def test_predict_empty_ruleset():
    rb = RuleBasedPredictor(rule_window=15 * MINUTE).fit(
        TaxonomyClassifier().classify_store(EventStore.empty())
    )
    assert rb.predict(
        TaxonomyClassifier().classify_store(EventStore.empty())
    ) == []


def test_parameter_validation():
    with pytest.raises(ValueError):
        RuleBasedPredictor(rule_window=0)
    with pytest.raises(ValueError):
        RuleBasedPredictor(prediction_window=-5)


def test_warning_confidence_matches_rule(train_store):
    rb = RuleBasedPredictor(rule_window=15 * MINUTE).fit(train_store)
    test = _labeled(_chain(500_000))
    [w] = rb.predict(test)
    assert w.confidence == rb.ruleset[0].confidence
