"""Tests for repro.evaluation.metrics."""

import pytest

from repro.evaluation.metrics import Metrics, mean_metrics, micro_metrics


def test_basic_ratios():
    m = Metrics(n_warnings=10, tp_warnings=7, n_fatals=20, covered_fatals=8)
    assert m.precision == pytest.approx(0.7)
    assert m.recall == pytest.approx(0.4)
    assert m.fp_warnings == 3


def test_f1():
    m = Metrics(10, 5, 10, 5)
    assert m.f1 == pytest.approx(0.5)
    z = Metrics(10, 0, 10, 0)
    assert z.f1 == 0.0


def test_degenerate_conventions():
    silent = Metrics(0, 0, 5, 0)
    assert silent.precision == 1.0  # no false alarms raised
    assert silent.recall == 0.0
    nothing_to_predict = Metrics(3, 0, 0, 0)
    assert nothing_to_predict.recall == 1.0


def test_validation():
    with pytest.raises(ValueError):
        Metrics(1, 2, 0, 0)
    with pytest.raises(ValueError):
        Metrics(0, 0, 1, 2)


def test_addition_pools_counts():
    a = Metrics(10, 5, 20, 10)
    b = Metrics(30, 15, 20, 10)
    c = a + b
    assert c.n_warnings == 40 and c.tp_warnings == 20
    assert c.n_fatals == 40 and c.covered_fatals == 20


def test_mean_metrics_macro_average():
    folds = [Metrics(10, 10, 10, 10), Metrics(10, 0, 10, 0)]
    p, r = mean_metrics(folds)
    assert p == pytest.approx(0.5)
    assert r == pytest.approx(0.5)


def test_mean_metrics_differs_from_micro():
    # Macro weights folds equally; micro weights by counts.
    folds = [Metrics(1, 1, 1, 1), Metrics(99, 0, 99, 0)]
    macro_p, _ = mean_metrics(folds)
    micro = micro_metrics(folds)
    assert macro_p == pytest.approx(0.5)
    assert micro.precision == pytest.approx(0.01)


def test_mean_metrics_requires_folds():
    with pytest.raises(ValueError):
        mean_metrics([])
