"""Tests for repro.evaluation.spec."""

import pickle

import pytest

from repro.core.pipeline import ThreePhasePredictor
from repro.evaluation.spec import (
    PredictorSpec,
    SpecError,
    registered_spec_kinds,
    spec_kind,
)
from repro.meta.ensembles import PolicyEnsemble
from repro.meta.stacked import MetaLearner
from repro.predictors.rulebased import RuleBasedPredictor
from repro.predictors.statistical import StatisticalPredictor
from repro.taxonomy.categories import MainCategory
from repro.util.timeutil import HOUR, MINUTE


def test_builtin_kinds_registered():
    assert set(registered_spec_kinds()) >= {
        "statistical", "rule", "meta", "three-phase", "policy",
    }


def test_build_each_kind():
    assert isinstance(PredictorSpec.statistical().build(), StatisticalPredictor)
    assert isinstance(PredictorSpec.rule().build(), RuleBasedPredictor)
    assert isinstance(PredictorSpec.meta().build(), MetaLearner)
    assert isinstance(PredictorSpec.three_phase().build(), ThreePhasePredictor)
    ensemble = PredictorSpec.of("policy", policy="union").build()
    assert isinstance(ensemble, PolicyEnsemble)
    assert ensemble.policy == "union"


def test_params_are_normalized_to_full_sorted_set():
    """Explicit defaults and omitted defaults produce identical specs."""
    a = PredictorSpec.rule(rule_window=900.0)
    b = PredictorSpec.rule(rule_window=900.0, min_support=0.04)
    assert a == b
    assert a.token() == b.token()
    names = [name for name, _ in a.params]
    assert names == sorted(names)


def test_unknown_kind_and_param_rejected():
    with pytest.raises(SpecError, match="unknown spec kind"):
        PredictorSpec.of("nonesuch")
    with pytest.raises(SpecError, match="unknown parameters"):
        PredictorSpec.rule(banana=1)


def test_param_values_must_be_primitive():
    with pytest.raises(SpecError, match="JSON-stable primitive"):
        PredictorSpec.rule(rule_window=[900.0])


def test_spec_pickles_and_hashes():
    for spec in (
        PredictorSpec.meta(prediction_window=30 * MINUTE),
        PredictorSpec.of("policy", policy="intersection"),
    ):
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)
        assert clone.token() == spec.token()
        assert PredictorSpec.from_dict(spec.as_manifest()).token() == spec.token()


def test_build_applies_parameters():
    spec = PredictorSpec.rule(
        rule_window=10 * MINUTE,
        prediction_window=20 * MINUTE,
        min_support=0.1,
    )
    rb = spec.build()
    assert rb.rule_window == 10 * MINUTE
    assert rb.prediction_window == 20 * MINUTE
    assert rb.min_support == 0.1


def test_meta_build_wires_base_predictors():
    spec = PredictorSpec.meta(
        prediction_window=20 * MINUTE,
        rule_window=10 * MINUTE,
        statistical_window=2 * HOUR,
    )
    meta = spec.build()
    assert meta.prediction_window == 20 * MINUTE
    assert meta.rulebased.rule_window == 10 * MINUTE
    assert meta.rulebased.prediction_window == 20 * MINUTE
    assert meta.statistical.window == 2 * HOUR


def test_statistical_categories_roundtrip():
    spec = PredictorSpec.statistical(categories="NETWORK,IOSTREAM")
    sp = spec.build()
    assert sp.forced_categories == (
        MainCategory.NETWORK, MainCategory.IOSTREAM,
    )


def test_with_params_and_get():
    spec = PredictorSpec.rule(rule_window=900.0)
    derived = spec.with_params(rule_window=600.0)
    assert derived.get("rule_window") == 600.0
    assert spec.get("rule_window") == 900.0  # original untouched
    assert derived.get("min_support") == spec.get("min_support")


def test_grid_varies_one_parameter():
    spec = PredictorSpec.rule()
    grid = spec.grid("prediction_window", [600, 1200])
    assert [w for w, _ in grid] == [600.0, 1200.0]
    assert [s.get("prediction_window") for _, s in grid] == [600, 1200]
    assert all(s.get("rule_window") == spec.get("rule_window") for _, s in grid)


def test_fit_token_ignores_predict_only_params():
    a = PredictorSpec.rule(prediction_window=600.0)
    b = PredictorSpec.rule(prediction_window=3600.0)
    assert a.token() != b.token()
    assert a.fit_token() == b.fit_token()
    # meta: prediction_window is predict-only there too
    am = PredictorSpec.meta(prediction_window=600.0)
    bm = PredictorSpec.meta(prediction_window=3600.0)
    assert am.fit_token() == bm.fit_token()


def test_fit_token_tracks_fit_params():
    a = PredictorSpec.rule(min_support=0.04)
    b = PredictorSpec.rule(min_support=0.08)
    assert a.fit_token() != b.fit_token()


def test_tokens_are_stable_across_processes():
    """Content hashes must not depend on interpreter state (e.g. PYTHONHASHSEED)."""
    spec = PredictorSpec.meta()
    assert spec.token() == PredictorSpec.meta().token()
    assert len(spec.token()) == 64
    assert spec.token() != spec.fit_token()


def test_spec_kind_metadata():
    entry = spec_kind("rule")
    assert "rule_window" in entry.fit_params
    assert "prediction_window" not in entry.fit_params
    assert not entry.seeded
    assert not PredictorSpec.rule().seeded
