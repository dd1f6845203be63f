"""Evaluation harness: metrics, matching, cross-validation, sweeps.

Implements the paper's measurement methodology (§3.2): warnings are scored
against the fatal events of the test fold —

- *precision* = correct predictions / all predictions made
  (a warning is correct when a failure occurs inside its horizon);
- *recall* = correctly predicted failures / all failures
  (a failure is predicted when some warning's horizon covers it);

and the paper's standard 10-fold cross-validation: the log is divided into
n contiguous folds of equal size, n-1 train and 1 tests, averaged.

:mod:`repro.evaluation.paper` records the published numbers every benchmark
prints next to its measurements.
"""

from repro.evaluation.crossval import (
    CVResult,
    cross_validate,
    fold_index_ranges,
)
from repro.evaluation.engine import (
    FoldOutcome,
    FoldTask,
    resolve_cache_dir,
    resolve_jobs,
    run_fold_tasks,
)
from repro.evaluation.export import (
    write_category_csv,
    write_cdf_csv,
    write_sweep_csv,
)
from repro.evaluation.incremental import (
    IncrementalFitter,
    is_incremental_enabled,
    supports_incremental,
)
from repro.evaluation.matching import MatchResult, match_warnings
from repro.evaluation.metrics import Metrics, mean_metrics
from repro.evaluation.leadtime import (
    LeadTimePoint,
    lead_time_profile,
    lead_time_summary,
)
from repro.evaluation.significance import (
    ConfidenceInterval,
    bootstrap_ci,
    paired_bootstrap_pvalue,
)
from repro.evaluation.spatial import (
    colocated_fraction,
    failure_counts_by_location,
    hotspots,
    spatial_concentration,
)
from repro.evaluation.spec import PredictorSpec, SpecError
from repro.evaluation.sweep import (
    SweepPoint,
    select_rule_window,
    sweep,
)

__all__ = [
    "Metrics",
    "mean_metrics",
    "MatchResult",
    "match_warnings",
    "CVResult",
    "cross_validate",
    "fold_index_ranges",
    "PredictorSpec",
    "SpecError",
    "FoldTask",
    "FoldOutcome",
    "run_fold_tasks",
    "resolve_jobs",
    "resolve_cache_dir",
    "IncrementalFitter",
    "is_incremental_enabled",
    "supports_incremental",
    "SweepPoint",
    "sweep",
    "select_rule_window",
    "LeadTimePoint",
    "lead_time_profile",
    "lead_time_summary",
    "failure_counts_by_location",
    "hotspots",
    "spatial_concentration",
    "colocated_fraction",
    "write_sweep_csv",
    "write_cdf_csv",
    "write_category_csv",
    "ConfidenceInterval",
    "bootstrap_ci",
    "paired_bootstrap_pvalue",
]
