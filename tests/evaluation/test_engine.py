"""Tests for repro.evaluation.engine: parallel backends and caching."""

import numpy as np
import pytest

from repro.cache import ArtifactCache, fold_fit_key, store_fingerprint
from repro.evaluation.crossval import cross_validate, fold_index_ranges
from repro.evaluation.engine import (
    FoldTask,
    resolve_cache_dir,
    resolve_jobs,
    run_fold_tasks,
    spawn_task_seeds,
)
from repro.evaluation.spec import PredictorSpec
from repro.evaluation.sweep import sweep
from repro.util.timeutil import MINUTE
from tests.oracles import reference_cross_validate

RULE_SPEC = PredictorSpec.rule(rule_window=15 * MINUTE)


# --------------------------------------------------------------------- #
# Configuration resolution
# --------------------------------------------------------------------- #


def test_resolve_jobs_explicit_and_default(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(None) == 1
    assert resolve_jobs(4) == 4
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs(None) == 3
    assert resolve_jobs(1) == 1  # explicit wins over env


def test_resolve_jobs_rejects_bad_values(monkeypatch):
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        resolve_jobs(0)
    monkeypatch.setenv("REPRO_JOBS", "lots")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        resolve_jobs(None)


def test_resolve_cache_dir(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert resolve_cache_dir(None) is None
    assert resolve_cache_dir(tmp_path) == str(tmp_path)
    monkeypatch.setenv("REPRO_CACHE_DIR", "/elsewhere")
    assert resolve_cache_dir(None) == "/elsewhere"
    assert resolve_cache_dir(tmp_path) == str(tmp_path)


def test_spawn_task_seeds():
    assert spawn_task_seeds(None, 3) == [None, None, None]
    seeds = spawn_task_seeds(7, 3)
    assert len(seeds) == 3
    # Same root -> same children; tasks are order-stable by construction.
    again = spawn_task_seeds(7, 3)
    assert [s.entropy for s in seeds] == [s.entropy for s in again]
    assert seeds[0].spawn_key != seeds[1].spawn_key


# --------------------------------------------------------------------- #
# Determinism across backends and cache states
# --------------------------------------------------------------------- #


def test_parallel_results_identical_to_serial(anl_events):
    """--jobs 2 must reproduce the serial run bit for bit."""
    serial = cross_validate(RULE_SPEC, anl_events, k=4, jobs=1)
    parallel = cross_validate(RULE_SPEC, anl_events, k=4, jobs=2)
    assert serial.fold_metrics == parallel.fold_metrics
    assert serial.precision == parallel.precision
    assert serial.recall == parallel.recall
    for a, b in zip(serial.fold_matches, parallel.fold_matches):
        assert (a.warning_hit == b.warning_hit).all()
        assert (a.fatal_covered == b.fatal_covered).all()
        # NaN marks uncovered fatals, hence equal_nan.
        assert np.array_equal(a.lead_seconds, b.lead_seconds, equal_nan=True)


def test_cached_results_identical_to_uncached(anl_events, tmp_path):
    plain = cross_validate(RULE_SPEC, anl_events, k=4)
    cold = cross_validate(RULE_SPEC, anl_events, k=4, cache_dir=tmp_path)
    warm = cross_validate(RULE_SPEC, anl_events, k=4, cache_dir=tmp_path)
    assert plain.fold_metrics == cold.fold_metrics == warm.fold_metrics


def test_warm_cache_skips_fitting(anl_events, tmp_path):
    ranges = fold_index_ranges(len(anl_events), 4)
    tasks = [
        FoldTask(spec=RULE_SPEC, start=s, end=e, fold=i)
        for i, (s, e) in enumerate(ranges)
    ]
    cold = run_fold_tasks(tasks, anl_events, cache_dir=tmp_path)
    assert [o.cache_hit for o in cold] == [False] * 4
    warm = run_fold_tasks(tasks, anl_events, cache_dir=tmp_path)
    assert [o.cache_hit for o in warm] == [True] * 4
    assert [o.match.metrics for o in cold] == [o.match.metrics for o in warm]


def test_parallel_workers_share_cache(anl_events, tmp_path):
    ranges = fold_index_ranges(len(anl_events), 4)
    tasks = [
        FoldTask(spec=RULE_SPEC, start=s, end=e, fold=i)
        for i, (s, e) in enumerate(ranges)
    ]
    run_fold_tasks(tasks, anl_events, jobs=2, cache_dir=tmp_path)
    warm = run_fold_tasks(tasks, anl_events, jobs=2, cache_dir=tmp_path)
    assert all(o.cache_hit for o in warm)


def test_outcomes_keep_task_order(anl_events):
    ranges = fold_index_ranges(len(anl_events), 5)
    tasks = [
        FoldTask(spec=RULE_SPEC, start=s, end=e, fold=i, group=i % 2)
        for i, (s, e) in enumerate(ranges)
    ]
    outcomes = run_fold_tasks(tasks, anl_events, jobs=2)
    assert [(o.group, o.fold) for o in outcomes] == [
        (t.group, t.fold) for t in tasks
    ]


# --------------------------------------------------------------------- #
# Cache keys
# --------------------------------------------------------------------- #


def test_cache_keys_stable_across_runs(anl_events):
    fp = store_fingerprint(anl_events)
    key1 = fold_fit_key(fp, 0, 100, RULE_SPEC)
    key2 = fold_fit_key(store_fingerprint(anl_events), 0, 100, RULE_SPEC)
    assert key1 == key2
    assert len(key1) == 64


def test_cache_key_tracks_every_ingredient(anl_events, sdsc_events):
    fp = store_fingerprint(anl_events)
    base = fold_fit_key(fp, 0, 100, RULE_SPEC)
    assert fold_fit_key(fp, 0, 99, RULE_SPEC) != base
    assert fold_fit_key(fp, 1, 100, RULE_SPEC) != base
    other_spec = RULE_SPEC.with_params(min_support=0.1)
    assert fold_fit_key(fp, 0, 100, other_spec) != base
    other_fp = store_fingerprint(sdsc_events)
    assert other_fp != fp
    assert fold_fit_key(other_fp, 0, 100, RULE_SPEC) != base


def test_prediction_window_points_share_cache_entries(anl_events, tmp_path):
    """The Figure-4 sweep mines each fold's rules once, not once per window."""
    windows = [10 * MINUTE, 20 * MINUTE, 30 * MINUTE]
    sweep(RULE_SPEC.grid("prediction_window", windows), anl_events,
          k=4, cache_dir=tmp_path)
    cache = ArtifactCache(tmp_path)
    # 3 windows x 4 folds = 12 tasks, but only 4 distinct fit artifacts.
    assert len(cache) == 4


def test_rule_window_points_do_not_share(anl_events, tmp_path):
    windows = [10 * MINUTE, 20 * MINUTE]
    sweep(RULE_SPEC.grid("rule_window", windows), anl_events,
          k=4, cache_dir=tmp_path)
    assert len(ArtifactCache(tmp_path)) == 8  # 2 windows x 4 folds


# --------------------------------------------------------------------- #
# Reference fold loop
# --------------------------------------------------------------------- #


def test_spec_cv_matches_reference_fold_loop(anl_events):
    from repro.predictors.rulebased import RuleBasedPredictor

    reference = reference_cross_validate(
        lambda: RuleBasedPredictor(rule_window=15 * MINUTE), anl_events, 4
    )
    modern = cross_validate(RULE_SPEC, anl_events, k=4)
    assert reference.fold_metrics == modern.fold_metrics
