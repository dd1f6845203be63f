"""Chunked Phase-1 compression against the whole-store reference.

``ClusterCompressor`` must return *exactly* the representatives and stats of
``tests.oracles.reference_compress`` for every chunking of a store —
chunking is an execution strategy, never a semantics change.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cache import store_fingerprint
from repro.preprocess.compression import (
    SPATIAL_KEYS,
    ClusterCompressor,
    temporal_keys,
)
from repro.preprocess.pipeline import PreprocessPipeline, job_impacting_filter
from repro.ras.fields import Severity
from repro.ras.store import EventStore
from repro.taxonomy.classifier import TaxonomyClassifier
from tests.conftest import make_event
from tests.oracles import reference_compress

#: Key columns of both temporal key modes and of spatial compression.
KEYS = {
    "job_location": temporal_keys("job_location"),
    "job_location_entry": temporal_keys("job_location_entry"),
    "spatial": SPATIAL_KEYS,
}
THRESHOLD = 300


def assert_stats_equal(a, b):
    """CompressionStats equality (the severity tally is an ndarray)."""
    assert a.input_records == b.input_records
    assert a.output_records == b.output_records
    assert a.clusters_merged == b.clusters_merged
    np.testing.assert_array_equal(a.removed_by_severity, b.removed_by_severity)


def compress_in_chunks(store, keys, sizes, threshold=THRESHOLD):
    """Push ``store`` in chunks of ``sizes`` rows (the rest as the last)."""
    compressor = ClusterCompressor(keys, threshold)
    lo = 0
    for size in sizes:
        compressor.push(store.select(slice(lo, lo + size)))
        lo = min(lo + size, len(store))
    compressor.push(store.select(slice(lo, len(store))))
    return compressor.finish()


def assert_matches_oracle(store, keys, sizes, threshold=THRESHOLD):
    rows, stats = compress_in_chunks(store, keys, sizes, threshold)
    want_rows, want_stats = reference_compress(store, keys, threshold)
    np.testing.assert_array_equal(rows, want_rows)
    assert_stats_equal(stats, want_stats)


# ---------------------------------------------------------------------- #
# Random stores under random chunkings
# ---------------------------------------------------------------------- #

#: Gaps between consecutive records: equal timestamps, the threshold's edge
#: on both sides, and silences long enough for a key to reappear afresh.
gaps = st.sampled_from([0, 0, 1, 120, THRESHOLD, THRESHOLD + 1, 2_000])


@st.composite
def stores(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    t, events = 0, []
    for _ in range(n):
        t += draw(gaps)
        events.append(
            make_event(
                time=t,
                location=draw(st.sampled_from(["R00", "R01", "R02"])),
                severity=draw(
                    st.sampled_from([Severity.INFO, Severity.ERROR, Severity.FATAL])
                ),
                entry=draw(st.sampled_from(["msg a", "msg b"])),
                job_id=draw(st.sampled_from([-1, 1, 2])),
            )
        )
    return EventStore.from_events(events)


@given(
    stores(),
    st.lists(st.integers(min_value=0, max_value=5), max_size=12),
    st.sampled_from(sorted(KEYS)),
)
@example(EventStore.empty(), [0, 0], "spatial")
@settings(max_examples=150, deadline=None)
def test_any_chunking_matches_the_whole_store_oracle(store, sizes, mode):
    """Chunks of 0-5 rows (empty chunks included) then the rest, so clusters
    routinely span three or more chunks."""
    assert_matches_oracle(store, KEYS[mode], sizes)


@pytest.mark.parametrize("mode", sorted(KEYS))
@pytest.mark.parametrize("sizes", [[], [1] * 8, [0, 2, 0, 3, 1]])
def test_max_severity_rising_in_a_later_chunk(mode, sizes):
    """One key's cluster runs across every chunk; its maximum severity first
    ties (the earliest stays) and then rises two chunks later, and the key
    reappears as a new cluster after a silence."""
    sev = [Severity.INFO, Severity.ERROR, Severity.ERROR, Severity.INFO,
           Severity.FATAL, Severity.FATAL, Severity.INFO, Severity.ERROR]
    times = [100, 100, 250, 400, 700, 700, 1_000, 5_000]
    store = EventStore.from_events(
        make_event(time=t, severity=s, location="R00", entry="msg a", job_id=1)
        for t, s in zip(times, sev)
    )
    assert_matches_oracle(store, KEYS[mode], sizes)
    rows, stats = compress_in_chunks(store, KEYS[mode], sizes)
    assert list(rows) == [4, 7]
    assert stats.clusters_merged == 1


# ---------------------------------------------------------------------- #
# The generated logs and the pipeline
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("chunk_events", [97, 5_000, 1_000_000])
@pytest.mark.parametrize("key_mode", ["job_location", "job_location_entry"])
def test_chunked_temporal_compression_bit_identical(
    small_anl_log, chunk_events, key_mode
):
    raw = small_anl_log.raw
    keys = temporal_keys(key_mode)
    compressor = ClusterCompressor(keys)
    for chunk in raw.iter_chunks(chunk_events):
        compressor.push(chunk)
    rows, stats = compressor.finish()
    want_rows, want_stats = reference_compress(raw, keys, THRESHOLD)
    np.testing.assert_array_equal(rows, want_rows)
    assert_stats_equal(stats, want_stats)


def test_incremental_compressor_empty_input():
    rep_idx, stats = ClusterCompressor(SPATIAL_KEYS).finish()
    assert len(rep_idx) == 0
    assert stats.input_records == 0
    assert stats.output_records == 0


def reference_pipeline(raw, event_filter=None):
    """Classify everything, then the oracle's temporal and spatial passes."""
    labeled = TaxonomyClassifier().classify_store(raw)
    rows, t_stats = reference_compress(labeled, KEYS["job_location"], THRESHOLD)
    after_temporal = labeled.select(rows)
    rows, s_stats = reference_compress(after_temporal, SPATIAL_KEYS, THRESHOLD)
    events = after_temporal.select(rows)
    if event_filter is not None:
        events = events.select(event_filter(events))
    return events, t_stats, s_stats


def test_streaming_pipeline_matches_batch(small_anl_log):
    raw = small_anl_log.raw
    events, t_stats, s_stats = reference_pipeline(raw)
    result = PreprocessPipeline().run(raw)
    assert store_fingerprint(result.events) == store_fingerprint(events)
    assert_stats_equal(result.temporal_stats, t_stats)
    assert_stats_equal(result.spatial_stats, s_stats)
    assert result.filtered_out == 0


def test_streaming_pipeline_matches_batch_with_filter(small_anl_log):
    raw = small_anl_log.raw
    events, _, s_stats = reference_pipeline(raw, job_impacting_filter)
    result = PreprocessPipeline(event_filter=job_impacting_filter).run(raw)
    assert store_fingerprint(result.events) == store_fingerprint(events)
    assert result.filtered_out == s_stats.output_records - len(events)


def test_columnar_input_streams_automatically(columnar_raw, small_anl_log):
    """A memory-mapped store and its in-RAM twin compress identically."""
    in_ram = PreprocessPipeline().run(small_anl_log.raw.materialized())
    mapped = PreprocessPipeline().run(columnar_raw)
    assert store_fingerprint(mapped.events) == store_fingerprint(in_ram.events)
    assert_stats_equal(mapped.temporal_stats, in_ram.temporal_stats)
    assert_stats_equal(mapped.spatial_stats, in_ram.spatial_stats)


def test_push_rejects_nothing_and_orders_reps():
    """Representative indices come back globally sorted (store order)."""
    store = EventStore.from_events(
        make_event(time=t, location="R01-M0-N00-C00", job_id=5)
        for t in (100, 150, 190, 5000, 5100)
    )
    comp = ClusterCompressor(temporal_keys("job_location"))
    for chunk in store.iter_chunks(2):
        comp.push(chunk)
    rep_idx, stats = comp.finish()
    assert list(rep_idx) == sorted(rep_idx)
    assert stats.input_records == 5
    # 100/150/190 coalesce; 5000/5100 coalesce -> 2 representatives.
    assert stats.output_records == 2


# ---------------------------------------------------------------------- #
# Input validation
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("threshold", [0, -300])
def test_non_positive_threshold_rejected_up_front(threshold):
    with pytest.raises(ValueError, match="threshold"):
        PreprocessPipeline(threshold=threshold)
    with pytest.raises(ValueError, match="threshold"):
        ClusterCompressor(SPATIAL_KEYS, threshold)


def test_unknown_key_rejected_up_front():
    with pytest.raises(ValueError, match="key_mode"):
        PreprocessPipeline(temporal_key_mode="bogus")
    with pytest.raises(ValueError, match="key columns"):
        ClusterCompressor(("bogus",))
    with pytest.raises(ValueError, match="key columns"):
        ClusterCompressor(())
