"""Tests for repro.evaluation.crossval."""

import pytest

from repro.evaluation.crossval import (
    CVResult,
    cross_validate,
    fold_index_ranges,
    holdout_validate,
)
from repro.evaluation.matching import match_warnings
from repro.evaluation.metrics import Metrics, micro_metrics
from repro.evaluation.spec import PredictorSpec
from repro.evaluation.sweep import sweep
from repro.predictors.statistical import StatisticalPredictor
from repro.util.timeutil import HOUR, MINUTE
from tests.oracles import reference_cross_validate


def test_fold_index_ranges_partition():
    ranges = fold_index_ranges(103, 10)
    assert len(ranges) == 10
    assert ranges[0][0] == 0 and ranges[-1][1] == 103
    # Contiguous, gap-free, sizes differ by at most one.
    sizes = []
    prev_end = 0
    for start, end in ranges:
        assert start == prev_end
        prev_end = end
        sizes.append(end - start)
    assert max(sizes) - min(sizes) <= 1


def test_fold_index_ranges_validation():
    with pytest.raises(ValueError):
        fold_index_ranges(100, 1)
    with pytest.raises(ValueError):
        fold_index_ranges(5, 10)


def test_fold_index_ranges_n_equals_k():
    """Degenerate but legal: every fold holds exactly one record."""
    ranges = fold_index_ranges(4, 4)
    assert ranges == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_fold_index_ranges_remainder_goes_to_leading_folds():
    ranges = fold_index_ranges(11, 3)
    assert ranges == [(0, 4), (4, 8), (8, 11)]
    sizes = [end - start for start, end in ranges]
    assert sizes == sorted(sizes, reverse=True)  # extras lead, never trail


def test_fold_index_ranges_k_below_two_rejected():
    for bad_k in (1, 0, -3):
        with pytest.raises(ValueError, match="k must be >= 2"):
            fold_index_ranges(100, bad_k)


@pytest.mark.parametrize(
    "predictor", [lambda: StatisticalPredictor(), StatisticalPredictor],
    ids=["lambda", "predictor-class"],
)
def test_entry_points_accept_only_specs(predictor, anl_events):
    with pytest.raises(TypeError, match="PredictorSpec"):
        cross_validate(predictor, anl_events, k=5)
    with pytest.raises(TypeError, match="PredictorSpec"):
        holdout_validate(predictor, anl_events, train_fraction=0.7)
    with pytest.raises(TypeError, match="PredictorSpec"):
        sweep([(30 * MINUTE, predictor)], anl_events, k=5)


def test_cross_validate_fold_structure(anl_events):
    """One fresh predictor per contiguous fold, fold for fold the serial
    reference loop's result."""
    result = cross_validate(
        PredictorSpec.statistical(window=HOUR, lead=5 * MINUTE), anl_events, k=5
    )
    reference = reference_cross_validate(
        lambda: StatisticalPredictor(window=HOUR, lead=5 * MINUTE), anl_events, 5
    )
    assert result.k == 5
    assert result.fold_metrics == reference.fold_metrics


def test_cross_validate_averages(anl_events):
    result = cross_validate(
        PredictorSpec.statistical(window=HOUR, lead=5 * MINUTE),
        anl_events,
        k=5,
    )
    assert 0.0 <= result.precision <= 1.0
    assert 0.0 <= result.recall <= 1.0
    s = result.summary()
    assert s["k"] == 5
    assert s["fatals"] == len(anl_events.fatal_events())


def test_summary_reports_macro_and_micro(anl_events):
    """The headline figures are macro; pooled micro figures sit beside them
    and are consistent with the summed warning/fatal counts."""
    result = cross_validate(
        PredictorSpec.statistical(window=HOUR, lead=5 * MINUTE),
        anl_events,
        k=5,
    )
    s = result.summary()
    assert s["precision"] == result.precision
    assert s["recall"] == result.recall
    assert s["precision_micro"] == result.precision_micro
    assert s["recall_micro"] == result.recall_micro
    pooled = micro_metrics(result.fold_metrics)
    assert s["warnings"] == pooled.n_warnings
    assert s["fatals"] == pooled.n_fatals
    assert s["precision_micro"] == pooled.precision
    assert s["recall_micro"] == pooled.recall


def test_micro_differs_from_macro_on_uneven_folds():
    """Macro weighs each fold equally; micro weighs each event equally."""
    folds = [Metrics(10, 1, 10, 1), Metrics(1, 1, 1, 1)]
    result = CVResult(fold_metrics=folds, fold_matches=[])
    assert result.precision == pytest.approx(0.55)   # (0.1 + 1.0) / 2
    assert result.precision_micro == pytest.approx(2 / 11)
    assert result.recall == pytest.approx(0.55)
    assert result.recall_micro == pytest.approx(2 / 11)


def test_cross_validate_spec_fold_structure(anl_events):
    """Fatals across test folds partition all fatals."""
    result = cross_validate(PredictorSpec.rule(), anl_events, k=5)
    assert result.k == 5
    total_fatals = sum(m.n_fatals for m in result.fold_metrics)
    assert total_fatals == len(anl_events.fatal_events())


def test_holdout_validate_accepts_spec(anl_events):
    """The spec holdout equals fitting by hand on the chronological split."""
    metrics, _ = holdout_validate(
        PredictorSpec.statistical(window=HOUR, lead=5 * MINUTE),
        anl_events,
        train_fraction=0.7,
    )
    cut = int(len(anl_events) * 0.7)
    test = anl_events.select(slice(cut, len(anl_events)))
    by_hand = StatisticalPredictor(window=HOUR, lead=5 * MINUTE).fit(
        anl_events.select(slice(0, cut))
    )
    assert metrics == match_warnings(by_hand.predict(test), test).metrics


def test_holdout_validate(anl_events):
    metrics, match = holdout_validate(
        PredictorSpec.statistical(window=HOUR, lead=5 * MINUTE),
        anl_events,
        train_fraction=0.7,
    )
    assert metrics.n_fatals == match.metrics.n_fatals
    assert metrics.n_fatals > 0


def test_holdout_validation_errors(anl_events):
    with pytest.raises(ValueError):
        holdout_validate(PredictorSpec.statistical(), anl_events, 0.0)
