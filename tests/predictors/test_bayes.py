"""Tests for repro.predictors.bayes."""

import pytest

from repro.evaluation.matching import match_warnings
from repro.predictors.bayes import BayesPredictor
from repro.ras.fields import Severity
from repro.ras.store import EventStore
from repro.taxonomy.classifier import TaxonomyClassifier
from repro.util.timeutil import MINUTE
from tests.conftest import make_event


def _labeled(events):
    return TaxonomyClassifier().classify_store(EventStore.from_events(events))


def _pattern(t0, with_head=True):
    """watchdog+assert in one window, kernel panic in the next."""
    events = [
        make_event(time=t0, severity=Severity.WARNING,
                   entry="watchdog timer approaching expiration"),
        make_event(time=t0 + 120, severity=Severity.ERROR,
                   entry="kernel assertion failed: internal consistency check"),
    ]
    if with_head:
        events.append(
            make_event(time=t0 + 20 * MINUTE, severity=Severity.FAILURE,
                       entry="kernel panic: unrecoverable condition detected")
        )
    return events


def _noise(t0):
    return [make_event(time=t0, severity=Severity.INFO,
                       entry="timer interrupt rollover serviced")]


@pytest.fixture
def train_store():
    events = []
    t = 100_000
    for k in range(40):
        events.extend(_pattern(t, with_head=True))
        t += 3 * 3600
        events.extend(_noise(t))
        t += 3 * 3600
    return _labeled(events)


def test_fit_and_posterior_ordering(train_store):
    bp = BayesPredictor(window=15 * MINUTE).fit(train_store)
    # Identify item ids from the label table.
    idx = {n: i for i, n in enumerate(train_store.subcat_table)}
    signal = {idx["watchdogTimerWarning"], idx["kernelAssertError"]}
    noise = {idx["timerInterruptInfo"]}
    assert bp.posterior(signal) > bp.posterior(noise)
    assert 0.0 <= bp.posterior(set()) <= 1.0


def test_predict_fires_on_signal(train_store):
    bp = BayesPredictor(window=15 * MINUTE, threshold=0.5).fit(train_store)
    # Test instance with the failure inside the warning horizon (the
    # training patterns place it one window later; the classifier does not
    # depend on the exact lag).
    events = _pattern(9_000_000, with_head=False) + [
        make_event(time=9_000_000 + 10 * MINUTE, severity=Severity.FAILURE,
                   entry="kernel panic: unrecoverable condition detected")
    ]
    test = _labeled(events)
    warnings = bp.predict(test)
    assert warnings, "the learned pattern must raise a warning"
    assert warnings[0].confidence > 0.9
    match = match_warnings(warnings, test)
    assert match.metrics.recall > 0


def test_predict_silent_on_noise(train_store):
    bp = BayesPredictor(window=15 * MINUTE, threshold=0.5).fit(train_store)
    test = _labeled(_noise(9_000_000) + _noise(9_000_600))
    assert bp.predict(test) == []


def test_dedup_within_horizon(train_store):
    bp = BayesPredictor(window=15 * MINUTE, threshold=0.5).fit(train_store)
    events = _pattern(9_000_000, with_head=False)
    events += _pattern(9_000_000 + 5 * MINUTE, with_head=False)
    warnings = bp.predict(_labeled(events))
    assert len(warnings) <= 1


def test_threshold_monotone(train_store):
    test_events = []
    t = 9_000_000
    for k in range(10):
        test_events.extend(_pattern(t))
        t += 2 * 3600
    test = _labeled(test_events)
    lo = BayesPredictor(window=15 * MINUTE, threshold=0.2).fit(train_store)
    hi = BayesPredictor(window=15 * MINUTE, threshold=0.9).fit(train_store)
    assert len(hi.predict(test)) <= len(lo.predict(test))


def test_empty_store():
    store = _labeled([])
    bp = BayesPredictor().fit(store)
    assert bp.predict(store) == []
    assert bp.posterior(set()) == pytest.approx(0.5, abs=0.01)


def test_validation():
    with pytest.raises(ValueError):
        BayesPredictor(window=0)
    with pytest.raises(ValueError):
        BayesPredictor(threshold=1.5)
    with pytest.raises(ValueError):
        BayesPredictor(alpha=0)


def test_on_generated_log(anl_events):
    """On the realistic log the Bayes baseline is usable but weaker than
    the rule method in precision (soft evidence fires more broadly)."""
    cut = int(len(anl_events) * 0.7)
    train = anl_events.select(slice(0, cut))
    test = anl_events.select(slice(cut, len(anl_events)))
    bp = BayesPredictor(window=30 * MINUTE, threshold=0.6).fit(train)
    m = match_warnings(bp.predict(test), test).metrics
    assert 0.0 <= m.precision <= 1.0
    assert m.n_warnings < len(test)  # not a warning firehose


def test_reinterned_rows_give_identical_warnings(anl_events):
    """Stores are read by label name: interning order cannot move warnings."""
    cut = int(len(anl_events) * 0.7)
    train = anl_events.select(slice(0, cut))
    test = anl_events.select(slice(cut, len(anl_events)))
    # The same rows, labels re-interned in arrival order (as the daemon and
    # the lifecycle loop build their chunk stores).
    reinterned = EventStore.from_events_in_memory(test.to_events())
    assert reinterned.subcat_table != test.subcat_table
    bp = BayesPredictor(window=30 * MINUTE, threshold=0.6).fit(train)
    assert bp.predict(reinterned) == bp.predict(test)
