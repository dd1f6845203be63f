"""Phase 2 — base failure predictors (paper §3.2).

- :mod:`repro.predictors.base` — the :class:`FailureWarning` type, the
  :class:`Predictor` interface and warning-stream utilities.
- :mod:`repro.predictors.statistical` — the statistical predictor exploiting
  temporal correlation among fatal events (§3.2.1).
- :mod:`repro.predictors.rulebased` — the association-rule predictor
  exploiting causal correlation between non-fatal and fatal events (§3.2.2).
"""

from repro.predictors.base import (
    FailureWarning,
    NotFittedError,
    Predictor,
    dedup_warnings,
    merge_warning_streams,
)
from repro.predictors.rulebased import RuleBasedPredictor
from repro.predictors.statistical import StatisticalPredictor, failure_gap_cdf

__all__ = [
    "FailureWarning",
    "NotFittedError",
    "Predictor",
    "dedup_warnings",
    "merge_warning_streams",
    "StatisticalPredictor",
    "RuleBasedPredictor",
    "failure_gap_cdf",
]
