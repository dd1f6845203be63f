"""Tests for repro.evaluation.significance."""

import pytest

from repro.evaluation.crossval import CVResult
from repro.evaluation.metrics import Metrics
from repro.evaluation.significance import (
    bootstrap_ci,
    paired_bootstrap_pvalue,
)


def _cv(precisions_recalls):
    metrics = [
        Metrics(n_warnings=100, tp_warnings=int(p * 100),
                n_fatals=100, covered_fatals=int(r * 100))
        for p, r in precisions_recalls
    ]
    return CVResult(fold_metrics=metrics, fold_matches=[])


def test_ci_contains_point():
    cv = _cv([(0.8, 0.4), (0.7, 0.5), (0.9, 0.45), (0.75, 0.42)])
    ci = bootstrap_ci(cv, "recall", seed=1)
    assert ci.lower <= ci.point <= ci.upper
    assert ci.point == pytest.approx(0.4425)
    assert 0 < ci.width < 0.2


def test_ci_degenerate_identical_folds():
    cv = _cv([(0.8, 0.5)] * 6)
    ci = bootstrap_ci(cv, "recall", seed=1)
    assert ci.width == pytest.approx(0.0, abs=1e-12)
    assert ci.point == pytest.approx(0.5)


def test_ci_level_widens_interval():
    cv = _cv([(0.8, 0.2), (0.8, 0.8), (0.8, 0.4), (0.8, 0.6), (0.8, 0.5)])
    narrow = bootstrap_ci(cv, "recall", level=0.5, seed=2)
    wide = bootstrap_ci(cv, "recall", level=0.99, seed=2)
    assert wide.width > narrow.width


def test_ci_metric_selection():
    cv = _cv([(0.8, 0.4), (0.6, 0.4)])
    assert bootstrap_ci(cv, "precision", seed=0).point == pytest.approx(0.7)
    f1 = bootstrap_ci(cv, "f1", seed=0)
    assert 0 < f1.point < 1


def test_ci_validation():
    cv = _cv([(0.8, 0.4)])
    with pytest.raises(ValueError, match="unknown metric"):
        bootstrap_ci(cv, "auc")
    with pytest.raises(ValueError):
        bootstrap_ci(cv, "recall", level=1.5)
    with pytest.raises(ValueError):
        bootstrap_ci(cv, "recall", resamples=10)
    with pytest.raises(ValueError, match="no folds"):
        bootstrap_ci(CVResult([], []), "recall")


def test_ci_deterministic_by_seed():
    cv = _cv([(0.8, 0.2), (0.8, 0.8), (0.8, 0.4)])
    a = bootstrap_ci(cv, "recall", seed=7)
    b = bootstrap_ci(cv, "recall", seed=7)
    assert (a.lower, a.upper) == (b.lower, b.upper)


def test_paired_pvalue_clear_winner():
    a = _cv([(0.8, r) for r in (0.7, 0.72, 0.69, 0.71, 0.73, 0.7)])
    b = _cv([(0.8, r) for r in (0.4, 0.42, 0.39, 0.41, 0.43, 0.4)])
    assert paired_bootstrap_pvalue(a, b, "recall", seed=3) < 0.01
    # And the reverse direction is clearly not supported.
    assert paired_bootstrap_pvalue(b, a, "recall", seed=3) > 0.9


def test_paired_pvalue_no_difference():
    a = _cv([(0.8, 0.5), (0.8, 0.6), (0.8, 0.4), (0.8, 0.55)])
    p = paired_bootstrap_pvalue(a, a, "recall", seed=3)
    assert p == pytest.approx(1.0)  # diff identically zero -> always <= 0


def test_paired_pvalue_requires_pairing():
    a = _cv([(0.8, 0.5)] * 4)
    b = _cv([(0.8, 0.5)] * 5)
    with pytest.raises(ValueError, match="paired"):
        paired_bootstrap_pvalue(a, b)


def test_on_real_cv_meta_vs_statistical(anl_events):
    """Meta's recall edge over the statistical base is significant even on
    the small fixture."""
    from repro.evaluation.crossval import cross_validate
    from repro.evaluation.spec import PredictorSpec
    from repro.util.timeutil import HOUR, MINUTE

    meta = cross_validate(
        PredictorSpec.meta(prediction_window=30 * MINUTE,
                           rule_window=15 * MINUTE),
        anl_events, k=5,
    )
    stat = cross_validate(
        PredictorSpec.statistical(window=HOUR, lead=5 * MINUTE),
        anl_events, k=5,
    )
    ci = bootstrap_ci(meta, "recall", seed=1)
    assert 0.0 <= ci.lower <= ci.upper <= 1.0
    p = paired_bootstrap_pvalue(meta, stat, "recall", seed=1)
    assert p < 0.2  # small fixture: directional, not strict
