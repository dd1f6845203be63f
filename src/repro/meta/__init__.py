"""Phase 3 — meta-learning prediction (paper §3.3).

- :mod:`repro.meta.stacked` — the paper's coverage-based stacked
  generalization: dispatch between the rule-based and statistical base
  predictors according to what the observation window contains.
- :mod:`repro.meta.ensembles` — alternative combination policies (union,
  intersection, confidence-max, single-base) used by the dispatch ablation.
"""

from repro.meta.ensembles import PolicyEnsemble
from repro.meta.stacked import MetaLearner, MetaStream

__all__ = ["MetaLearner", "MetaStream", "PolicyEnsemble"]
