"""Tests for repro.core.pipeline (the end-to-end three-phase predictor)."""

import pytest

from repro.core.config import PredictorConfig
from repro.core.pipeline import ThreePhasePredictor
from repro.evaluation.matching import match_warnings
from repro.predictors.base import NotFittedError


@pytest.fixture(scope="module")
def raw_split():
    # A somewhat larger log than the shared fixture: a chronological split
    # needs enough failures in the test half to be meaningful.
    from repro.synth.generator import LogGenerator
    from repro.synth.profiles import anl_profile

    raw = LogGenerator(anl_profile(), scale=0.06, seed=3).generate().raw
    cut_time = raw.times[0] + int(raw.span_seconds() * 0.6)
    train = raw.time_window(raw.times[0], cut_time)
    test = raw.time_window(cut_time, raw.times[-1] + 1)
    return train, test


def test_fit_raw_predict_raw(raw_split):
    train, test = raw_split
    p = ThreePhasePredictor()
    p.fit_raw(train)
    warnings = p.predict_raw(test)
    assert p.report.fit_preprocess is not None
    assert p.report.predict_preprocess is not None
    assert p.report.rules_mined >= 1
    assert "network" in p.report.trigger_categories or (
        "iostream" in p.report.trigger_categories
    )
    assert warnings, "end-to-end run produced no warnings"
    # Warnings are actionable: evaluate them against the test fold.  The
    # test half of a scale-0.02 log holds only tens of failures, so assert
    # usefulness, not calibrated accuracy (the benches do that at scale).
    result = p.preprocess(test)
    metrics = match_warnings(warnings, result.events).metrics
    assert metrics.n_fatals > 0
    assert metrics.covered_fatals >= 1
    assert metrics.precision > 0.3


def test_predict_before_fit_raises(raw_split):
    _, test = raw_split
    with pytest.raises(NotFittedError):
        ThreePhasePredictor().predict_raw(test)


def test_fit_on_preprocessed_events(anl_events):
    p = ThreePhasePredictor()
    cut = int(len(anl_events) * 0.7)
    p.fit(anl_events.select(slice(0, cut)))
    warnings = p.predict(anl_events.select(slice(cut, len(anl_events))))
    assert isinstance(warnings, list)
    assert p.report.fit_preprocess is None  # phase 1 not invoked


def test_config_propagates():
    cfg = PredictorConfig(prediction_window=600.0)
    p = ThreePhasePredictor(cfg)
    assert p.rulebased.prediction_window == 600.0
    assert p.meta.prediction_window == 600.0
    assert p.statistical.window == cfg.statistical_window


def test_shared_classifier():
    p = ThreePhasePredictor()
    assert p.statistical.classifier is p.classifier
    assert p.preprocessor.classifier is p.classifier
