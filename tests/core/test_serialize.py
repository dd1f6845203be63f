"""Tests for repro.core.serialize (model persistence)."""

import io
import json

import pytest

from repro.core.pipeline import ThreePhasePredictor
from repro.core.serialize import (
    SerializationError,
    apply_learned_state,
    codec_for,
    codec_for_kind,
    learned_state_to_dict,
    load_model,
    meta_from_dict,
    meta_to_dict,
    model_from_dict,
    model_to_dict,
    register_codec,
    registered_kinds,
    ruleset_from_dict,
    ruleset_to_dict,
    save_model,
)
from repro.meta.stacked import MetaLearner
from repro.predictors.rulebased import RuleBasedPredictor
from repro.predictors.statistical import StatisticalPredictor
from repro.util.timeutil import MINUTE


@pytest.fixture(scope="module")
def fitted(anl_events):
    cut = int(len(anl_events) * 0.7)
    meta = MetaLearner(
        prediction_window=30 * MINUTE, rule_window=15 * MINUTE
    ).fit(anl_events.select(slice(0, cut)))
    return meta, anl_events.select(slice(cut, len(anl_events)))


def test_meta_roundtrip_identical_predictions(fitted, tmp_path):
    meta, test = fitted
    path = tmp_path / "model.json"
    save_model(meta, path)
    loaded = load_model(path)
    assert isinstance(loaded, MetaLearner)

    original = meta.predict(test)
    reloaded = loaded.predict(test)
    assert [
        (w.issued_at, w.horizon_start, w.horizon_end, w.detail)
        for w in original
    ] == [
        (w.issued_at, w.horizon_start, w.horizon_end, w.detail)
        for w in reloaded
    ]


def test_three_phase_roundtrip(anl_events, tmp_path):
    cut = int(len(anl_events) * 0.7)
    p = ThreePhasePredictor()
    p.fit(anl_events.select(slice(0, cut)))
    test = anl_events.select(slice(cut, len(anl_events)))

    buf = io.StringIO()
    save_model(p, buf)
    buf.seek(0)
    loaded = load_model(buf)
    assert isinstance(loaded, ThreePhasePredictor)
    assert loaded.config.rule_window == p.config.rule_window
    assert loaded.report.rules_mined == p.report.rules_mined
    assert [w.detail for w in loaded.predict(test)] == [
        w.detail for w in p.predict(test)
    ]


#: Where each kind's document nests its rule-based block(s) and config.
RULE_BLOCKS = {
    "rule": [()],
    "meta": [("meta", "rulebased")],
    "three-phase": [("meta", "rulebased"), ("config",)],
}


@pytest.mark.parametrize("miner", ["apriori", "fpgrowth"])
@pytest.mark.parametrize("kind", sorted(RULE_BLOCKS))
def test_documents_with_retired_miner_key_still_load(
    fitted_predictors, kind, miner
):
    """Documents written while a miner choice existed carry ``"miner"``;
    they load into the same model (and rule set) as a current document."""
    current = model_to_dict(fitted_predictors[kind])
    assert "miner" not in json.dumps(current)
    legacy = json.loads(json.dumps(current))
    for path in RULE_BLOCKS[kind]:
        block = legacy
        for key in path:
            block = block[key]
        block["miner"] = miner
    loaded = model_from_dict(legacy)
    assert model_to_dict(loaded) == current


def test_ruleset_roundtrip(fitted):
    meta, _ = fitted
    rs = meta.rulebased.ruleset
    again = ruleset_from_dict(ruleset_to_dict(rs))
    assert len(again) == len(rs)
    assert [(r.body, r.heads, r.confidence) for r in again] == [
        (r.body, r.heads, r.confidence) for r in rs
    ]
    assert again.item_names == rs.item_names


def test_statistical_state_preserved(fitted, tmp_path):
    meta, _ = fitted
    loaded = meta_from_dict(meta_to_dict(meta))
    assert loaded.statistical.trigger_categories == (
        meta.statistical.trigger_categories
    )
    assert loaded.statistical.follow_probability == (
        meta.statistical.follow_probability
    )


def test_unfitted_predictor_rejected():
    with pytest.raises(SerializationError, match="not fitted"):
        meta_to_dict(MetaLearner())


def test_unknown_object_rejected(tmp_path):
    with pytest.raises(SerializationError):
        save_model(object(), tmp_path / "x.json")  # type: ignore[arg-type]


def test_version_check(fitted, tmp_path):
    meta, _ = fitted
    path = tmp_path / "model.json"
    save_model(meta, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(SerializationError, match="version"):
        load_model(path)


def test_malformed_document(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format_version": 1, "kind": "meta",
                                "meta": {"prediction_window": 60}}))
    with pytest.raises(SerializationError):
        load_model(path)


def test_out_of_range_item_ids(fitted):
    meta, _ = fitted
    doc = ruleset_to_dict(meta.rulebased.ruleset)
    if doc["rules"]:
        doc["rules"][0]["body"] = [999_999]
        with pytest.raises(SerializationError, match="out of range"):
            ruleset_from_dict(doc)


def test_unknown_kind(tmp_path):
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"format_version": 1, "kind": "magic"}))
    with pytest.raises(SerializationError, match="kind"):
        load_model(path)


# ---------------------------------------------------------------------- #
# Codec registry + learned-state payloads
# ---------------------------------------------------------------------- #


def test_codec_registry_covers_builtin_kinds():
    assert set(registered_kinds()) == {
        "statistical", "rule", "meta", "three-phase",
    }
    assert codec_for_kind("meta").cls is MetaLearner
    with pytest.raises(SerializationError, match="kind"):
        codec_for_kind("magic")
    with pytest.raises(SerializationError, match="cannot serialize"):
        codec_for(object())


def test_duplicate_codec_rejected():
    meta_codec = codec_for_kind("meta")
    with pytest.raises(ValueError, match="duplicate"):
        register_codec(meta_codec)


def test_learned_state_roundtrip_identical_predictions(fitted):
    """State applied to a *fresh* predictor reproduces the fitted one."""
    meta, test = fitted
    doc = learned_state_to_dict(meta)
    assert doc["kind"] == "meta"
    restored = apply_learned_state(
        MetaLearner(prediction_window=30 * MINUTE, rule_window=15 * MINUTE),
        doc,
    )
    assert restored.is_fitted
    assert [w.detail for w in restored.predict(test)] == [
        w.detail for w in meta.predict(test)
    ]


def test_learned_state_survives_prediction_window_change(fitted):
    """The cache's key insight: state is portable across predict-only params."""
    meta, test = fitted
    doc = learned_state_to_dict(meta.rulebased)
    wide = apply_learned_state(
        RuleBasedPredictor(
            rule_window=15 * MINUTE, prediction_window=60 * MINUTE
        ),
        doc,
    )
    assert wide.prediction_window == 60 * MINUTE  # target's own parameter kept
    assert len(wide.ruleset) == len(meta.rulebased.ruleset)
    assert wide.no_precursor_fraction == meta.rulebased.no_precursor_fraction


def test_apply_learned_state_validates_document(fitted):
    meta, _ = fitted
    doc = learned_state_to_dict(meta)
    with pytest.raises(SerializationError, match="kind"):
        apply_learned_state(RuleBasedPredictor(), doc)
    with pytest.raises(SerializationError, match="version"):
        apply_learned_state(MetaLearner(), {**doc, "format_version": 99})
    with pytest.raises(SerializationError, match="state"):
        apply_learned_state(MetaLearner(), {**doc, "state": None})


def test_from_state_requires_fitted_bases():
    with pytest.raises(ValueError, match="fitted"):
        MetaLearner.from_state(
            prediction_window=30 * MINUTE,
            statistical=StatisticalPredictor(),
            rulebased=RuleBasedPredictor(),
        )
