"""Tests for repro.evaluation.sweep."""

import pytest

from repro.evaluation.spec import PredictorSpec
from repro.evaluation.sweep import (
    DEFAULT_WINDOWS,
    SweepPoint,
    format_sweep,
    select_rule_window,
    sweep,
)
from repro.predictors.rulebased import RuleBasedPredictor
from repro.util.timeutil import MINUTE
from tests.oracles import reference_cross_validate

RULE_SPEC = PredictorSpec.rule(rule_window=15 * MINUTE)


def test_default_windows_are_papers():
    assert DEFAULT_WINDOWS[0] == 5 * MINUTE
    assert DEFAULT_WINDOWS[-1] == 60 * MINUTE


def test_sweep_runs_each_window(anl_events):
    windows = [10 * MINUTE, 30 * MINUTE]
    points = sweep(RULE_SPEC.grid("prediction_window", windows), anl_events, k=4)
    assert [p.window for p in points] == windows
    assert all(0 <= p.precision <= 1 and 0 <= p.recall <= 1 for p in points)
    assert points[0].window_minutes == 10


def test_rule_recall_rises_with_window(anl_events):
    """The paper's Figure-4 trend on the small log."""
    points = sweep(
        RULE_SPEC.grid("prediction_window", [5 * MINUTE, 60 * MINUTE]),
        anl_events,
        k=4,
    )
    assert points[1].recall >= points[0].recall


def test_rule_window_sweep_shim_removed():
    """The PR-3 deprecation shim is gone; rule-window sweeps go through
    ``sweep(spec.grid("rule_window", ...))``."""
    import repro.evaluation
    import repro.evaluation.sweep

    assert not hasattr(repro.evaluation.sweep, "rule_window_sweep")
    assert not hasattr(repro.evaluation, "rule_window_sweep")
    assert "rule_window_sweep" not in repro.evaluation.__all__


def test_rule_window_sweep_via_spec_grid(anl_events):
    """The migration target for old rule_window_sweep callers."""
    windows = [10 * MINUTE, 20 * MINUTE]
    spec = PredictorSpec.rule(prediction_window=30 * MINUTE)
    points = sweep(spec.grid("rule_window", windows), anl_events, k=4)
    assert [p.window for p in points] == windows
    assert all(0 <= p.precision <= 1 and 0 <= p.recall <= 1 for p in points)


def test_spec_sweep_matches_factory_sweep(anl_events):
    """The engine-backed grid sweep reproduces the serial reference loop
    over window factories exactly."""
    windows = [10 * MINUTE, 30 * MINUTE]
    reference = [
        reference_cross_validate(
            lambda w=w: RuleBasedPredictor(
                rule_window=15 * MINUTE, prediction_window=w
            ),
            anl_events,
            4,
        )
        for w in windows
    ]
    modern = sweep(RULE_SPEC.grid("prediction_window", windows), anl_events, k=4)
    assert [(w, cv.precision, cv.recall) for w, cv in zip(windows, reference)] == [
        (p.window, p.precision, p.recall) for p in modern
    ]


def test_sweep_rejects_empty_grid(anl_events):
    with pytest.raises(ValueError, match="empty sweep grid"):
        sweep([], anl_events, k=4)


def _pt(window, precision, recall):
    from repro.evaluation.crossval import CVResult

    return SweepPoint(window=window, precision=precision, recall=recall,
                      result=CVResult([], []))


def test_select_rule_window_best_precision_then_recall():
    points = [
        _pt(300, 0.90, 0.30),
        _pt(900, 0.90, 0.45),   # same rounded precision, better recall
        _pt(1800, 0.80, 0.60),
    ]
    assert select_rule_window(points).window == 900


def test_select_rule_window_rounds_precision():
    points = [
        _pt(300, 0.901, 0.30),
        _pt(900, 0.899, 0.55),  # rounds to 0.90 too; recall breaks the tie
    ]
    assert select_rule_window(points).window == 900


def test_select_rule_window_empty():
    with pytest.raises(ValueError):
        select_rule_window([])


def test_sweep_point_f1():
    assert _pt(1, 0.5, 0.5).f1 == pytest.approx(0.5)
    assert _pt(1, 0.0, 0.0).f1 == 0.0


def test_format_sweep():
    text = format_sweep([_pt(300, 0.9, 0.3)], title="demo")
    assert "demo" in text
    assert "0.9000" in text
