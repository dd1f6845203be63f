"""Tests for repro.evaluation.incremental — the spec-aware fitter bridge.

The fitter's contract is strict: fits must be bit-identical to
``predictor.fit(train)`` (so artifact-cache payloads and registry snapshot
ids never move), and maintained miners must be shared across specs with the
same mining recipe (so sweeps pay one fit per fit-relevant configuration).
"""

import numpy as np
import pytest

from repro.core.serialize import learned_state_to_dict
from repro.evaluation.crossval import cross_validate
from repro.evaluation.incremental import (
    SUPPORTED_KINDS,
    IncrementalFitter,
    is_incremental_enabled,
    mining_recipe,
    supports_incremental,
)
from repro.evaluation.spec import PredictorSpec
from repro.evaluation.sweep import sweep
from repro.util.timeutil import MINUTE

RULE_SPEC = PredictorSpec.rule(rule_window=15 * MINUTE)
META_SPEC = PredictorSpec.meta(rule_window=15 * MINUTE)


@pytest.fixture
def train(anl_events):
    return anl_events.select(slice(0, int(len(anl_events) * 0.7)))


# --------------------------------------------------------------------- #
# Gates and recipes
# --------------------------------------------------------------------- #


def test_supported_kinds():
    assert SUPPORTED_KINDS == {"rule", "meta"}
    assert supports_incremental(RULE_SPEC)
    assert supports_incremental(META_SPEC)
    assert not supports_incremental(PredictorSpec.statistical())
    assert not supports_incremental(PredictorSpec.of("three-phase"))


def test_is_incremental_enabled(monkeypatch):
    monkeypatch.delenv("REPRO_INCREMENTAL", raising=False)
    assert not is_incremental_enabled(None)
    assert is_incremental_enabled(True)
    assert not is_incremental_enabled(False)
    for value in ("1", "true", "ON", " yes "):
        monkeypatch.setenv("REPRO_INCREMENTAL", value)
        assert is_incremental_enabled(None)
    monkeypatch.setenv("REPRO_INCREMENTAL", "0")
    assert not is_incremental_enabled(None)
    # Explicit argument always wins over the environment.
    monkeypatch.setenv("REPRO_INCREMENTAL", "1")
    assert not is_incremental_enabled(False)


def test_mining_recipe_ignores_predict_only_params():
    a = META_SPEC.with_params(prediction_window=10 * MINUTE)
    b = META_SPEC.with_params(prediction_window=60 * MINUTE)
    assert mining_recipe(a) == mining_recipe(b)
    assert mining_recipe(a) != mining_recipe(
        META_SPEC.with_params(rule_window=30 * MINUTE)
    )


def test_fitter_rejects_unsupported_kind(train):
    fitter = IncrementalFitter()
    with pytest.raises(ValueError, match="no incremental fit path"):
        fitter.fit(PredictorSpec.statistical(), train)


# --------------------------------------------------------------------- #
# Bit-identity with predictor.fit
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("spec", [RULE_SPEC, META_SPEC], ids=["rule", "meta"])
def test_fit_identical_to_direct_fit(spec, train):
    fitter = IncrementalFitter()
    incremental = fitter.fit(spec, train, seed=None)
    direct = spec.build(seed=None).fit(train)
    assert learned_state_to_dict(incremental) == learned_state_to_dict(direct)


def test_repeated_fit_is_zero_delta(train):
    fitter = IncrementalFitter()
    fitter.fit(RULE_SPEC, train)
    fitter.fit(RULE_SPEC, train)
    assert fitter.fits == 2
    assert fitter.zero_delta_fits == 1


def test_prediction_window_grid_shares_one_miner(train):
    fitter = IncrementalFitter()
    grid = META_SPEC.grid(
        "prediction_window", [10 * MINUTE, 20 * MINUTE, 30 * MINUTE]
    )
    for _, spec in grid:
        fitter.fit(spec, train)
    assert fitter.fits == 3
    assert fitter.zero_delta_fits == 2  # same recipe, same window
    assert len({id(fitter.miner_for(spec)) for _, spec in grid}) == 1


def test_sliding_windows_keep_identity(anl_events):
    fitter = IncrementalFitter()
    n = len(anl_events)
    for frac in (0.0, 0.2, 0.4):
        window = anl_events.select(slice(int(n * frac), int(n * (frac + 0.6))))
        incremental = fitter.fit(RULE_SPEC, window)
        direct = RULE_SPEC.build().fit(window)
        assert learned_state_to_dict(incremental) == learned_state_to_dict(
            direct
        )


# --------------------------------------------------------------------- #
# Engine integration: incremental runs reproduce plain runs bit for bit
# --------------------------------------------------------------------- #


def assert_same_result(plain, fast):
    assert plain.fold_metrics == fast.fold_metrics
    for a, b in zip(plain.fold_matches, fast.fold_matches):
        assert (a.warning_hit == b.warning_hit).all()
        assert (a.fatal_covered == b.fatal_covered).all()
        assert np.array_equal(a.lead_seconds, b.lead_seconds, equal_nan=True)


def test_cross_validate_incremental_identical(anl_events):
    plain = cross_validate(RULE_SPEC, anl_events, k=4)
    fast = cross_validate(RULE_SPEC, anl_events, k=4, incremental=True)
    assert_same_result(plain, fast)


def test_cross_validate_meta_incremental_identical(anl_events):
    plain = cross_validate(META_SPEC, anl_events, k=3, seed=9)
    fast = cross_validate(META_SPEC, anl_events, k=3, seed=9, incremental=True)
    assert_same_result(plain, fast)


def test_sweep_incremental_identical(anl_events):
    grid = RULE_SPEC.grid("rule_window", [10 * MINUTE, 20 * MINUTE])
    plain = sweep(grid, anl_events, k=3)
    fast = sweep(
        RULE_SPEC.grid("rule_window", [10 * MINUTE, 20 * MINUTE]),
        anl_events,
        k=3,
        incremental=True,
    )
    assert [p.window for p in plain] == [p.window for p in fast]
    for a, b in zip(plain, fast):
        assert a.precision == b.precision and a.recall == b.recall
        assert_same_result(a.result, b.result)


def test_incremental_env_default(anl_events, monkeypatch):
    monkeypatch.setenv("REPRO_INCREMENTAL", "1")
    fast = cross_validate(RULE_SPEC, anl_events, k=3)
    monkeypatch.delenv("REPRO_INCREMENTAL")
    plain = cross_validate(RULE_SPEC, anl_events, k=3)
    assert_same_result(plain, fast)


def test_incremental_with_cache_writes_identical_payloads(
    anl_events, tmp_path
):
    """Cache artifacts written through the fitter equal the plain ones."""
    plain_dir = tmp_path / "plain"
    fast_dir = tmp_path / "fast"
    cross_validate(RULE_SPEC, anl_events, k=3, cache_dir=plain_dir)
    cross_validate(
        RULE_SPEC, anl_events, k=3, cache_dir=fast_dir, incremental=True
    )
    plain_files = sorted(p.relative_to(plain_dir) for p in plain_dir.rglob("*.json"))
    fast_files = sorted(p.relative_to(fast_dir) for p in fast_dir.rglob("*.json"))
    assert plain_files == fast_files and plain_files
    for rel in plain_files:
        assert (plain_dir / rel).read_text() == (fast_dir / rel).read_text()
