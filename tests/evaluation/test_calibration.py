"""Tests for repro.evaluation.calibration."""

import pytest

from repro.evaluation.calibration import (
    CalibrationMeasurement,
    TargetCheck,
    compare_to_paper,
    measure_profile,
)
from repro.synth.profiles import anl_profile


@pytest.fixture(scope="module")
def measurement():
    # Small scale + few folds: exercises the harness, not the calibration.
    return measure_profile(anl_profile(), scale=0.05, seeds=(3,), k=4)


def test_measure_profile_fields(measurement):
    assert measurement.profile == "ANL"
    assert measurement.seeds == (3,)
    assert 0.9 <= measurement.fatal_recovery <= 1.0
    for name, value in vars(measurement).items():
        if name.endswith(("precision", "recall", "fraction")) or \
                name.endswith(("_5", "_60")):
            assert 0.0 <= value <= 1.0, (name, value)
    assert measurement.rules_mined >= 1


def test_meta_dominates_in_measurement(measurement):
    assert measurement.meta_recall_60 >= measurement.rule_recall_60 - 0.05
    assert measurement.meta_recall_60 >= measurement.stat_recall - 0.05


def test_compare_to_paper(measurement):
    checks = compare_to_paper(measurement, tolerance=1.0)  # always ok
    assert {c.name for c in checks} == {"stat_precision", "stat_recall"}
    assert all(c.ok for c in checks)
    tight = compare_to_paper(measurement, tolerance=0.0)
    assert any(not c.ok for c in tight)
    assert tight[0].delta == pytest.approx(
        measurement.stat_precision - 0.5157, abs=1e-9
    )


def test_compare_unknown_profile():
    m = CalibrationMeasurement(profile="LLNL", scale=0.1, seeds=(1,))
    with pytest.raises(KeyError):
        compare_to_paper(m)


def test_target_check_semantics():
    c = TargetCheck("x", measured=0.50, target=0.52, tolerance=0.05)
    assert c.ok and c.delta == pytest.approx(-0.02)
    assert not TargetCheck("x", 0.3, 0.52, 0.05).ok
