"""n-fold cross-validation over event streams (paper §3.2).

"The log is divided into n folds of equal size and then the (n-1) folds are
used as training set for learning and the last fold is used for prediction
and testing ... there are n such results, which are then averaged."

Folds are *contiguous in time* (the log is a time series; shuffling records
would leak future context into training), matching the paper's equal-size
division of the log.

Predictors are described by a :class:`~repro.evaluation.spec.PredictorSpec`:
picklable, so folds can run on a process pool, and hashable, so fitted
artifacts can be cached (see :mod:`repro.evaluation.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.evaluation.engine import FoldTask, run_fold_tasks, spawn_task_seeds
from repro.evaluation.matching import MatchResult
from repro.evaluation.metrics import Metrics, mean_metrics, micro_metrics
from repro.evaluation.spec import PredictorSpec
from repro.obs import get_registry
from repro.ras.store import EventStore


def require_spec(predictor: object) -> PredictorSpec:
    """``predictor`` itself; :class:`TypeError` unless it is a spec."""
    if not isinstance(predictor, PredictorSpec):
        raise TypeError(
            f"expected a PredictorSpec, got {type(predictor).__name__}; "
            f"describe the predictor with PredictorSpec.of(kind, **params)"
        )
    return predictor


def fold_index_ranges(n: int, k: int) -> list[tuple[int, int]]:
    """Contiguous [start, end) index ranges of k near-equal folds.

    The first ``n % k`` folds receive one extra record, so sizes differ by at
    most one and every record belongs to exactly one fold.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < k:
        raise ValueError(f"cannot split {n} events into {k} folds")
    base, extra = divmod(n, k)
    ranges: list[tuple[int, int]] = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


@dataclass
class CVResult:
    """Outcome of one cross-validated evaluation."""

    fold_metrics: list[Metrics]
    fold_matches: list[MatchResult]

    @property
    def precision(self) -> float:
        """Macro-averaged precision across folds (the paper's averaging)."""
        return mean_metrics(self.fold_metrics)[0]

    @property
    def recall(self) -> float:
        """Macro-averaged recall across folds."""
        return mean_metrics(self.fold_metrics)[1]

    @property
    def precision_micro(self) -> float:
        """Pooled precision: all folds' warnings counted as one set."""
        return micro_metrics(self.fold_metrics).precision

    @property
    def recall_micro(self) -> float:
        """Pooled recall: all folds' fatals counted as one set."""
        return micro_metrics(self.fold_metrics).recall

    @property
    def k(self) -> int:
        return len(self.fold_metrics)

    def summary(self) -> dict:
        """Plain-dict rendering for reports.

        ``precision``/``recall`` are the macro (per-fold, then averaged)
        figures — the paper's §3.2 averaging, quoted in Figures 4-6.  The
        ``*_micro`` fields pool counts across folds first, which matches the
        summed ``warnings``/``fatals`` totals also reported here; macro and
        micro differ whenever folds are unevenly hard.
        """
        return {
            "k": self.k,
            "precision": self.precision,
            "recall": self.recall,
            "precision_micro": self.precision_micro,
            "recall_micro": self.recall_micro,
            "warnings": sum(m.n_warnings for m in self.fold_metrics),
            "fatals": sum(m.n_fatals for m in self.fold_metrics),
        }


def cross_validate(
    predictor: PredictorSpec,
    events: EventStore,
    k: int = 10,
    *,
    jobs: Optional[int] = None,
    cache_dir: Union[str, Path, None] = None,
    seed: Optional[int] = None,
    incremental: Optional[bool] = None,
) -> CVResult:
    """k-fold CV of a predictor over a preprocessed event store.

    For each fold, a fresh predictor built from the spec ``predictor`` is
    fitted on the complement (the remaining k-1 folds, concatenated in time
    order) and scored on the fold.

    Folds execute on the evaluation engine: ``jobs`` selects the worker
    count (``None`` → ``REPRO_JOBS`` → serial), ``cache_dir`` enables the
    content-addressed fit-artifact cache (``None`` → ``REPRO_CACHE_DIR`` →
    off), ``seed`` spawns one child ``SeedSequence`` per fold for seeded
    predictor kinds, and ``incremental`` (``None`` → ``REPRO_INCREMENTAL``
    → off) lets the serial backend maintain mining state across folds.
    Results are identical across worker counts, cache states, and the
    incremental switch.
    """
    spec = require_spec(predictor)
    ranges = fold_index_ranges(len(events), k)
    seeds = spawn_task_seeds(seed, len(ranges))
    tasks = [
        FoldTask(spec=spec, start=start, end=end, fold=fold, seed=seeds[fold])
        for fold, (start, end) in enumerate(ranges)
    ]
    outcomes = run_fold_tasks(
        tasks, events, jobs=jobs, cache_dir=cache_dir, incremental=incremental,
    )
    obs = get_registry()
    for outcome in outcomes:
        obs.observe("crossval.fold_seconds", outcome.seconds)
    obs.counter("crossval.folds", k)
    return CVResult(
        fold_metrics=[o.match.metrics for o in outcomes],
        fold_matches=[o.match for o in outcomes],
    )
