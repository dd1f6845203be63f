"""Configuration of the end-to-end three-phase predictor."""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.timeutil import HOUR, MINUTE
from repro.util.validation import check_fraction, check_positive


@dataclass
class PredictorConfig:
    """All tunables of the three-phase predictor in one place.

    Defaults follow the paper: 300 s compression threshold, support 0.04,
    confidence 0.2, 15-minute rule-generation window, statistical band of
    5 minutes to 1 hour, 30-minute prediction window.
    """

    # Phase 1
    compression_threshold: float = 300.0
    temporal_key_mode: str = "job_location"

    # Phase 2 — rule-based
    rule_window: float = 15 * MINUTE
    min_support: float = 0.04
    min_confidence: float = 0.2
    max_rule_len: int = 6

    # Phase 2 — statistical
    statistical_lead: float = 5 * MINUTE
    statistical_window: float = HOUR
    trigger_threshold: float = 0.25

    # Phase 3
    prediction_window: float = 30 * MINUTE

    def __post_init__(self) -> None:
        check_positive(self.compression_threshold, "compression_threshold")
        check_positive(self.rule_window, "rule_window")
        check_positive(self.prediction_window, "prediction_window")
        check_fraction(self.min_support, "min_support")
        check_fraction(self.min_confidence, "min_confidence")
        check_fraction(self.trigger_threshold, "trigger_threshold")
        if not 0 <= self.statistical_lead < self.statistical_window:
            raise ValueError("statistical_lead must be < statistical_window")
        if self.max_rule_len < 2:
            raise ValueError("max_rule_len must be >= 2 (body + head)")
