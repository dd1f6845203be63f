"""repro — a meta-learning failure predictor for Blue Gene/L systems.

Reproduction of Gujrati, Li, Lan, Thakur & White, "A Meta-Learning Failure
Predictor for Blue Gene/L Systems" (ICPP 2007): a three-phase pipeline that
preprocesses RAS event logs, learns two base failure predictors (statistical
temporal correlation and association rules), and combines them with a
coverage-based stacked meta-learner.

Quick start::

    from repro import LogGenerator, anl_profile, ThreePhasePredictor

    log = LogGenerator(anl_profile(), scale=0.1, seed=7).generate()
    predictor = ThreePhasePredictor()
    result = predictor.preprocess(log.raw)          # Phase 1
    events = result.events
    cut = int(len(events) * 0.7)
    predictor.fit(events.select(slice(0, cut)))     # Phases 2-3
    warnings = predictor.predict(events.select(slice(cut, len(events))))

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.core.config import PredictorConfig
from repro.core.pipeline import ThreePhasePredictor
from repro.core.serialize import load_model, save_model
from repro.evaluation.crossval import cross_validate
from repro.evaluation.matching import match_warnings
from repro.evaluation.metrics import Metrics
from repro.meta.multi import MultiMeta
from repro.meta.stacked import MetaLearner
from repro.obs import MetricsRegistry
from repro.predictors.base import FailureWarning
from repro.predictors.rulebased import RuleBasedPredictor
from repro.predictors.statistical import StatisticalPredictor
from repro.online.detector import OnlineSession
from repro.preprocess.pipeline import PreprocessPipeline
from repro.ras.events import RasEvent
from repro.ras.fields import Facility, Severity
from repro.ras.logfile import read_log, write_log
from repro.ras.store import EventStore
from repro.synth.generator import GeneratedLog, LogGenerator
from repro.synth.profiles import anl_profile, profile_by_name, sdsc_profile
from repro.taxonomy.classifier import TaxonomyClassifier

__version__ = "1.0.0"

__all__ = [
    "PredictorConfig",
    "ThreePhasePredictor",
    "save_model",
    "load_model",
    "MetaLearner",
    "MultiMeta",
    "OnlineSession",
    "StatisticalPredictor",
    "RuleBasedPredictor",
    "FailureWarning",
    "PreprocessPipeline",
    "TaxonomyClassifier",
    "EventStore",
    "RasEvent",
    "Severity",
    "Facility",
    "read_log",
    "write_log",
    "LogGenerator",
    "GeneratedLog",
    "anl_profile",
    "sdsc_profile",
    "profile_by_name",
    "cross_validate",
    "match_warnings",
    "Metrics",
    "MetricsRegistry",
    "__version__",
]
