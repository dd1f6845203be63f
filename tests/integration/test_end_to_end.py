"""Integration tests: full pipeline, both profiles, cross-module contracts."""


from repro.core.pipeline import ThreePhasePredictor
from repro.evaluation.crossval import cross_validate
from repro.evaluation.spec import PredictorSpec
from repro.meta.stacked import MetaLearner
from repro.predictors.statistical import StatisticalPredictor
from repro.ras.logfile import read_log, write_log
from repro.taxonomy.categories import MainCategory
from repro.util.timeutil import HOUR, MINUTE


def test_log_file_roundtrip_preserves_pipeline_results(small_anl_log, tmp_path):
    """Writing the raw log to disk and reading it back must not change
    Phase-1 output (the store is fully serializable)."""
    path = tmp_path / "anl_raw.log"
    write_log(small_anl_log.raw, path)
    reread = read_log(path)
    assert len(reread) == len(small_anl_log.raw)

    direct = ThreePhasePredictor().preprocess(small_anl_log.raw)
    via_disk = ThreePhasePredictor().preprocess(reread)
    assert direct.unique_events == via_disk.unique_events
    assert list(direct.events.times) == list(via_disk.events.times)


def test_both_profiles_full_pipeline(anl_events, sdsc_events):
    for events in (anl_events, sdsc_events):
        cv = cross_validate(
            PredictorSpec.meta(
                prediction_window=30 * MINUTE, rule_window=15 * MINUTE
            ),
            events,
            k=5,
        )
        assert 0.0 <= cv.precision <= 1.0
        assert cv.recall > 0.15


def test_meta_dominates_bases_in_cv(anl_events):
    """Cross-validated version of the paper's headline comparison."""
    k = 5
    W, G = 30 * MINUTE, 15 * MINUTE
    stat = cross_validate(
        PredictorSpec.statistical(window=HOUR, lead=5 * MINUTE),
        anl_events, k=k,
    )
    rule = cross_validate(
        PredictorSpec.rule(rule_window=G, prediction_window=W),
        anl_events, k=k,
    )
    meta = cross_validate(
        PredictorSpec.meta(prediction_window=W, rule_window=G),
        anl_events, k=k,
    )
    assert meta.recall >= max(stat.recall, rule.recall) - 0.02
    assert meta.precision >= stat.precision - 0.05


def test_rule_precision_exceeds_statistical(anl_events):
    """Paper: the rule method is the high-precision base."""
    k = 5
    stat = cross_validate(
        PredictorSpec.statistical(window=HOUR, lead=5 * MINUTE),
        anl_events, k=k,
    )
    rule = cross_validate(
        PredictorSpec.rule(
            rule_window=15 * MINUTE, prediction_window=30 * MINUTE
        ),
        anl_events, k=k,
    )
    assert rule.precision > stat.precision


def test_warning_stream_well_formed(anl_events):
    cut = int(len(anl_events) * 0.7)
    meta = MetaLearner().fit(anl_events.select(slice(0, cut)))
    test = anl_events.select(slice(cut, len(anl_events)))
    warnings = meta.predict(test)
    t0, t1 = int(test.times[0]), int(test.times[-1])
    for w in warnings:
        assert t0 <= w.issued_at <= t1
        assert w.horizon_start > w.issued_at
        assert 0.0 <= w.confidence <= 1.0
    issued = [w.issued_at for w in warnings]
    assert issued == sorted(issued)


def test_subcategory_vocabulary_stable_across_folds(anl_events):
    """Item ids must mean the same thing in train and test folds (shared
    intern tables) — otherwise mined rules would be garbage."""
    cut = int(len(anl_events) * 0.5)
    a = anl_events.select(slice(0, cut))
    b = anl_events.select(slice(cut, len(anl_events)))
    assert a.subcat_table is b.subcat_table


def test_statistical_triggers_consistent_between_profiles(
    anl_events, sdsc_events
):
    """Network/iostream dominate temporal correlation on both systems."""
    for events in (anl_events, sdsc_events):
        sp = StatisticalPredictor(window=HOUR, lead=5 * MINUTE).fit(events)
        probs = sp.follow_probability
        netio = {MainCategory.NETWORK, MainCategory.IOSTREAM}
        # Consider only categories with a meaningful sample.
        fatal = events.fatal_events()
        cat_ids = sp.classifier.main_category_ids(fatal)
        cats = list(MainCategory)
        big = {
            c for i, c in enumerate(cats)
            if int((cat_ids == i).sum()) >= 10
        }
        ranked = sorted(
            (c for c in probs if c in big), key=lambda c: -probs[c]
        )
        assert set(ranked[:2]) <= netio | {MainCategory.APPLICATION}
        assert netio & set(ranked[:2])
