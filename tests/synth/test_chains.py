"""Tests for repro.synth.chains."""

import pytest

from repro.synth.chains import ChainTemplate, default_chain_templates
from repro.taxonomy.subcategories import by_name


def _by_key(templates):
    return {t.key: t for t in templates}


def test_default_templates_valid():
    templates = default_chain_templates()
    assert len(templates) == 25
    keys = [t.key for t in templates]
    assert len(keys) == len(set(keys))


def test_figure3_rules_transcribed():
    templates = default_chain_templates()
    nodemap = _by_key(templates)["nodemap-file"]
    assert nodemap.body == ("nodeMapFileError",)
    assert nodemap.head == "nodeMapCreateFailure"
    assert nodemap.confidence == pytest.approx(1.0)

    ddr = _by_key(templates)["ddr-socket"]
    assert ddr.body == ("ddrErrorCorrectionInfo", "maskInfo")
    assert ddr.head == "socketReadFailure"
    assert ddr.confidence == pytest.approx(0.698)

    linkcard = _by_key(templates)["nodecard-linkcard-c"]
    assert len(linkcard.body) == 4
    assert linkcard.head == "linkcardFailure"


def test_bodies_nonfatal_heads_fatal():
    for tpl in default_chain_templates():
        assert by_name(tpl.head).is_fatal
        for item in tpl.body:
            assert not by_name(item).is_fatal


def test_every_fatal_category_has_a_template():
    from repro.taxonomy.categories import MainCategory

    heads = {by_name(t.head).category for t in default_chain_templates()}
    assert heads == set(MainCategory)


def test_confidence_scale_clips():
    templates = default_chain_templates(confidence_scale=2.0)
    assert all(t.confidence <= 1.0 for t in templates)
    assert _by_key(templates)["coredump-load"].confidence == 1.0


def test_geometry_arguments():
    templates = default_chain_templates(body_span=999.0, head_lag=(5.0, 10.0))
    assert all(t.body_span == 999.0 for t in templates)
    assert all(t.head_lag == (5.0, 10.0) for t in templates)
    assert templates[0].max_extent == 999.0 + 10.0


def test_weight_overrides():
    templates = default_chain_templates(weight_overrides={"coredump-load": 7.5})
    assert _by_key(templates)["coredump-load"].weight == 7.5


def test_unknown_override_key():
    with pytest.raises(KeyError, match="unknown template keys"):
        default_chain_templates(weight_overrides={"nope": 1.0})


def test_template_validation():
    with pytest.raises(ValueError):
        ChainTemplate(key="", body=("maskInfo",), head="cacheFailure",
                      confidence=0.5)
    with pytest.raises(ValueError):
        ChainTemplate(key="x", body=(), head="cacheFailure", confidence=0.5)
    with pytest.raises(ValueError, match="non-fatal"):
        ChainTemplate(key="x", body=("torusFailure",), head="cacheFailure",
                      confidence=0.5)
    with pytest.raises(ValueError, match="fatal"):
        ChainTemplate(key="x", body=("maskInfo",), head="maskInfo",
                      confidence=0.5)
    with pytest.raises(ValueError):
        ChainTemplate(key="x", body=("maskInfo",), head="cacheFailure",
                      confidence=0.5, head_lag=(10.0, 5.0))
