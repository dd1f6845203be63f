"""Tests for repro.core.config."""

import pytest

from repro.core.config import PredictorConfig
from repro.util.timeutil import HOUR, MINUTE


def test_defaults_follow_paper():
    cfg = PredictorConfig()
    assert cfg.compression_threshold == 300.0
    assert cfg.min_support == 0.04
    assert cfg.min_confidence == 0.2
    assert cfg.rule_window == 15 * MINUTE
    assert cfg.statistical_lead == 5 * MINUTE
    assert cfg.statistical_window == HOUR


def test_validation():
    with pytest.raises(ValueError):
        PredictorConfig(compression_threshold=0)
    with pytest.raises(ValueError):
        PredictorConfig(min_support=1.5)
    with pytest.raises(ValueError):
        PredictorConfig(statistical_lead=HOUR, statistical_window=HOUR)
    with pytest.raises(ValueError):
        PredictorConfig(max_rule_len=1)
