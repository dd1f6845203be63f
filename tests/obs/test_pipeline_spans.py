"""Integration: the three-phase pipeline emits the documented trace.

``docs/observability.md`` promises a specific span hierarchy and metric set
for an instrumented ``fit_raw``/``predict_raw`` run; this test pins it.
"""

from repro.core.pipeline import ThreePhasePredictor
from repro.obs import MetricsRegistry, use


def test_fit_raw_predict_raw_emit_phase_spans(small_anl_log):
    registry = MetricsRegistry()
    predictor = ThreePhasePredictor()
    with use(registry):
        predictor.fit_raw(small_anl_log.raw)
        predictor.predict_raw(small_anl_log.raw)

    # fit_raw -> phase1 + phase2; predict_raw -> phase1 + phase3.
    assert [s.name for s in registry.spans] == [
        "phase1",
        "phase2",
        "phase1",
        "phase3",
    ]
    assert all(s.duration > 0.0 for s in registry.iter_spans())

    phase1, phase2, _, phase3 = registry.spans
    # Phase 1 compresses the raw store in time before classifying only the
    # survivors, on every store backend.
    assert [c.name for c in phase1.children] == [
        "phase1.temporal",
        "phase1.classify",
        "phase1.spatial",
    ]
    fit_children = {c.name for c in phase2.children}
    assert {"phase2.fit.statistical", "phase2.fit.rule"} <= fit_children
    assert [c.name for c in phase3.children] == ["phase3.dispatch"]

    # The mining span is nested under the rule fit.
    (rule_fit,) = [c for c in phase2.children if c.name == "phase2.fit.rule"]
    assert [c.name for c in rule_fit.children] == ["phase2.mine"]


def test_instrumented_run_records_documented_metrics(small_anl_log):
    registry = MetricsRegistry()
    predictor = ThreePhasePredictor()
    with use(registry):
        predictor.fit_raw(small_anl_log.raw)
        predictor.predict_raw(small_anl_log.raw)

    counters = registry.counters
    assert counters["preprocess.records_in"] == 2 * len(small_anl_log.raw)
    assert counters["preprocess.events_out"] > 0
    assert "predictor.rules_mined" in counters
    assert "meta.dispatch{method=rule}" in counters
    assert "meta.dispatch{method=statistical}" in counters
    assert any(key.startswith("mining.") for key in counters)
    assert 0.0 < registry.gauges["preprocess.compression_ratio"] < 1.0


def test_uninstrumented_run_leaves_the_null_registry_empty(small_anl_log):
    from repro.obs import NULL_REGISTRY, get_registry

    predictor = ThreePhasePredictor()
    predictor.fit_raw(small_anl_log.raw)
    assert get_registry() is NULL_REGISTRY
    assert NULL_REGISTRY.spans == []
    assert NULL_REGISTRY.counters == {}
