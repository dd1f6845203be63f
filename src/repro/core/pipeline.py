"""End-to-end three-phase predictor (paper Figure 1).

``ThreePhasePredictor`` is the library's headline API::

    from repro import ThreePhasePredictor, PredictorConfig

    predictor = ThreePhasePredictor(PredictorConfig())
    predictor.fit_raw(raw_training_store)       # phases 1 + 2 + 3 training
    warnings = predictor.predict_raw(raw_test_store)

Both methods accept *raw* record stores: Phase 1 (categorize + compress) is
applied internally and its statistics are kept on ``.report``.  Use
``fit``/``predict`` instead when events are already preprocessed (the
evaluation harness does, to avoid recompressing per fold).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import PredictorConfig
from repro.meta.stacked import MetaLearner
from repro.obs import get_registry
from repro.predictors.base import FailureWarning, Predictor
from repro.predictors.rulebased import RuleBasedPredictor
from repro.predictors.statistical import StatisticalPredictor
from repro.preprocess.pipeline import PreprocessPipeline, PreprocessResult
from repro.ras.store import EventStore
from repro.taxonomy.classifier import TaxonomyClassifier


@dataclass
class PipelineReport:
    """Phase-1 statistics of the last ``fit_raw``/``predict_raw`` calls."""

    fit_preprocess: Optional[PreprocessResult] = None
    predict_preprocess: Optional[PreprocessResult] = None
    rules_mined: int = 0
    trigger_categories: tuple = ()


class ThreePhasePredictor(Predictor):
    """Preprocessing + base predictors + meta-learner, end to end."""

    name = "three-phase"

    def __init__(self, config: Optional[PredictorConfig] = None) -> None:
        super().__init__()
        self.config = config or PredictorConfig()
        cfg = self.config
        self.classifier = TaxonomyClassifier()
        self.preprocessor = PreprocessPipeline(
            classifier=self.classifier,
            threshold=cfg.compression_threshold,
            temporal_key_mode=cfg.temporal_key_mode,
        )
        self.statistical = StatisticalPredictor(
            window=cfg.statistical_window,
            lead=cfg.statistical_lead,
            trigger_threshold=cfg.trigger_threshold,
            classifier=self.classifier,
        )
        self.rulebased = RuleBasedPredictor(
            rule_window=cfg.rule_window,
            prediction_window=cfg.prediction_window,
            min_support=cfg.min_support,
            min_confidence=cfg.min_confidence,
            max_len=cfg.max_rule_len,
        )
        self.meta = MetaLearner(
            prediction_window=cfg.prediction_window,
            rule_window=cfg.rule_window,
            statistical=self.statistical,
            rulebased=self.rulebased,
        )
        self.report = PipelineReport()

    @classmethod
    def from_state(
        cls, config: PredictorConfig, meta: MetaLearner
    ) -> "ThreePhasePredictor":
        """Rebuild a *fitted* pipeline around a restored meta-learner.

        The public restore path used by model deserialization: the fitted
        ``meta`` (and its base predictors) replaces the freshly constructed
        ones, the report is rebuilt from the learned state, and the
        predictor is marked fitted.
        """
        if not meta.is_fitted:
            raise ValueError(
                "ThreePhasePredictor.from_state requires a fitted meta-learner"
            )
        predictor = cls(config)
        predictor.meta = meta
        predictor.statistical = meta.statistical
        predictor.rulebased = meta.rulebased
        predictor.report.rules_mined = len(meta.rulebased.ruleset or [])
        predictor.report.trigger_categories = tuple(
            c.value for c in meta.statistical.trigger_categories
        )
        predictor.mark_fitted()
        return predictor

    # -- preprocessed-event interface (Predictor protocol) -------------- #

    def fit(self, events: EventStore) -> "ThreePhasePredictor":
        """Train phases 2-3 on an already preprocessed event store."""
        with get_registry().span("phase2"):
            self.meta.fit(events)
        self.report.rules_mined = (
            len(self.rulebased.ruleset) if self.rulebased.ruleset else 0
        )
        self.report.trigger_categories = tuple(
            c.value for c in self.statistical.trigger_categories
        )
        self._fitted = True
        return self

    def predict(self, events: EventStore) -> list[FailureWarning]:
        """Meta-learner warnings for an already preprocessed test store."""
        self._check_fitted()
        with get_registry().span("phase3"):
            return self.meta.predict(events)

    # -- raw-record interface -------------------------------------------- #

    def preprocess(
        self, raw: EventStore, chunk_events: Optional[int] = None
    ) -> PreprocessResult:
        """Run Phase 1 alone (exposed for inspection and the CLI).

        ``chunk_events`` is forwarded to
        :meth:`~repro.preprocess.pipeline.PreprocessPipeline.run`: ``None``
        streams automatically on columnar-backed stores, ``0`` forces the
        batch path, a positive count forces streaming.
        """
        with get_registry().span("phase1"):
            return self.preprocessor.run(raw, chunk_events=chunk_events)

    def fit_raw(self, raw: EventStore) -> "ThreePhasePredictor":
        """Phase 1 on the raw store, then train phases 2-3."""
        result = self.preprocess(raw)
        self.report.fit_preprocess = result
        return self.fit(result.events)

    def predict_raw(self, raw: EventStore) -> list[FailureWarning]:
        """Phase 1 on the raw test store, then meta-learner warnings."""
        self._check_fitted()
        result = self.preprocess(raw)
        self.report.predict_preprocess = result
        return self.predict(result.events)
