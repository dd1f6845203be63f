"""Parameter sweeps: prediction windows (Figures 4-5) and rule-generation
windows (§3.2.2 Step 5).

Each sweep point runs a full cross-validation, so a sweep over 8 windows with
k=10 trains 80 predictors.  The modern entry point is :func:`sweep`, which
takes a grid of ``(window, PredictorSpec)`` pairs — build one with
:meth:`PredictorSpec.grid <repro.evaluation.spec.PredictorSpec.grid>` — and
flattens *all* sweep points' folds into a single evaluation-engine run: the
process pool interleaves folds from different windows, and the artifact
cache deduplicates training work across points that share fit parameters
(a rule set mined once serves every prediction window).

Both of the paper's sweeps use the same idiom:
``sweep(spec.grid("prediction_window", windows), events, ...)`` for
Figures 4-5 and ``sweep(spec.grid("rule_window", windows), events, ...)``
for Step 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.evaluation.crossval import CVResult, fold_index_ranges, require_spec
from repro.evaluation.engine import FoldTask, run_fold_tasks, spawn_task_seeds
from repro.evaluation.spec import PredictorSpec
from repro.obs import get_registry
from repro.ras.store import EventStore
from repro.util.timeutil import MINUTE

#: The paper's sweep grid: 5 minutes to 1 hour.
DEFAULT_WINDOWS: tuple[float, ...] = tuple(
    m * MINUTE for m in (5, 10, 15, 20, 30, 40, 50, 60)
)

#: A sweep grid: each point is (window seconds, spec to evaluate there).
SpecGrid = Sequence[tuple[float, PredictorSpec]]


@dataclass(frozen=True)
class SweepPoint:
    """Result of one sweep setting."""

    window: float
    precision: float
    recall: float
    result: CVResult

    @property
    def window_minutes(self) -> float:
        return self.window / MINUTE

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def sweep(
    grid: SpecGrid,
    events: EventStore,
    *,
    k: int = 10,
    jobs: Optional[int] = None,
    cache_dir: Union[str, Path, None] = None,
    seed: Optional[int] = None,
    incremental: Optional[bool] = None,
) -> list[SweepPoint]:
    """Cross-validate every spec in ``grid``; one point per grid entry.

    All ``len(grid) * k`` folds are submitted to the evaluation engine as
    one task list, so parallel workers stay busy across point boundaries
    and cached fit artifacts are shared between points whose specs agree on
    fit parameters.  ``jobs``/``cache_dir`` default from ``REPRO_JOBS`` /
    ``REPRO_CACHE_DIR``; ``seed`` spawns an independent child seed per fold
    task.  ``incremental`` (default ``REPRO_INCREMENTAL``) lets the serial
    engine backend maintain mining state across tasks, so grid points
    sharing a mining recipe reuse one maintained structure instead of
    refitting per point.  Point order follows ``grid`` order; results are
    identical across worker counts and the incremental switch.
    """
    grid = [(window, require_spec(spec)) for window, spec in grid]
    if not grid:
        raise ValueError("empty sweep grid")
    ranges = fold_index_ranges(len(events), k)
    seeds = spawn_task_seeds(seed, len(grid) * len(ranges))
    tasks: list[FoldTask] = []
    for gi, (_, spec) in enumerate(grid):
        for fold, (start, end) in enumerate(ranges):
            tasks.append(
                FoldTask(
                    spec=spec,
                    start=start,
                    end=end,
                    fold=fold,
                    group=gi,
                    seed=seeds[len(tasks)],
                )
            )
    outcomes = run_fold_tasks(
        tasks, events, jobs=jobs, cache_dir=cache_dir, incremental=incremental
    )
    obs = get_registry()
    for outcome in outcomes:
        obs.observe("crossval.fold_seconds", outcome.seconds)
    obs.counter("crossval.folds", len(outcomes))
    points: list[SweepPoint] = []
    for gi, (window, _) in enumerate(grid):
        mine = sorted(
            (o for o in outcomes if o.group == gi), key=lambda o: o.fold
        )
        result = CVResult(
            fold_metrics=[o.match.metrics for o in mine],
            fold_matches=[o.match for o in mine],
        )
        points.append(SweepPoint(
            window=float(window),
            precision=result.precision,
            recall=result.recall,
            result=result,
        ))
    return points


def select_rule_window(
    points: Sequence[SweepPoint],
    precision_tolerance: float = 0.03,
    recall_tolerance: float = 0.01,
) -> SweepPoint:
    """Pick the paper's operating point: "best precision with highest recall".

    Precision typically climbs steeply until the window covers the precursor
    chains' full extent and then plateaus; recall is nearly flat in the
    generation window.  Among windows within ``precision_tolerance`` of the
    best precision and ``recall_tolerance`` of the best recall achievable
    there, the *smallest* window wins — the paper's own argument: larger
    windows only "induce an increased monitoring load on the system" once
    accuracy has saturated.
    """
    if not points:
        raise ValueError("no sweep points")
    best_p = max(p.precision for p in points)
    c1 = [p for p in points if p.precision >= best_p - precision_tolerance]
    best_r = max(p.recall for p in c1)
    c2 = [p for p in c1 if p.recall >= best_r - recall_tolerance]
    return min(c2, key=lambda p: p.window)


def format_sweep(points: Sequence[SweepPoint], title: str = "") -> str:
    """Text table of a sweep (benchmark / CLI output)."""
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'window(min)':>12} {'precision':>10} {'recall':>10} {'f1':>10}")
    for p in points:
        lines.append(
            f"{p.window_minutes:>12.0f} {p.precision:>10.4f} "
            f"{p.recall:>10.4f} {p.f1:>10.4f}"
        )
    return "\n".join(lines)
