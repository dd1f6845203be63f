"""Tests for repro.serve (sharding and the detector pool)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.meta.stacked import MetaLearner
from repro.online import OnlineSession
from repro.ras.store import EventBatch, EventStore
from repro.serve import DetectorPool, midplane_of, shard_ids, shard_of_key
from repro.util.rng import as_generator
from repro.util.timeutil import MINUTE
from tests.oracles import reference_pool_stats, reference_shard


@pytest.fixture(scope="module")
def fitted(anl_events):
    cut = int(len(anl_events) * 0.7)
    meta = MetaLearner(
        prediction_window=30 * MINUTE, rule_window=15 * MINUTE
    ).fit(anl_events.select(slice(0, cut)))
    return meta, anl_events.select(slice(cut, len(anl_events)))


# ------------------------------------------------------------- sharding


def test_midplane_of_extracts_prefix():
    assert midplane_of("R12-M0-N04-C32") == "R12-M0"
    assert midplane_of("R12-M1") == "R12-M1"
    # Coarser or free-form locations shard by their full string.
    assert midplane_of("R12") == "R12"
    assert midplane_of("service-card") == "service-card"


def test_shard_ids_midplane_matches_per_event_routing(fitted):
    _, test = fitted
    assignment = shard_ids(test, "midplane", 4)
    for i, ev in enumerate(test):
        assert reference_shard(ev, "midplane", 4) == assignment[i]


def test_shard_ids_job_matches_per_event_routing(fitted):
    _, test = fitted
    assignment = shard_ids(test, "job", 3)
    for i, ev in enumerate(test):
        assert reference_shard(ev, "job", 3) == assignment[i]


def test_shard_ids_are_in_range_and_deterministic(fitted):
    _, test = fitted
    for key in ("midplane", "job"):
        a = shard_ids(test, key, 5)
        assert a.min() >= 0 and a.max() < 5
        assert np.array_equal(a, shard_ids(test, key, 5))


def _wide_parent_store(seed: int = 0, n: int = 400) -> EventStore:
    """A store whose location table is far larger than any chunk's use of it.

    The table mixes compute-card, bare-midplane, rack-level and free-form
    strings, so some locations shard by their midplane and some by their
    full text.
    """
    rng = as_generator(seed)
    locations = [f"R{r:02d}-M{m}-N{c:02d}-C{k:02d}"
                 for r in range(3) for m in range(2) for c in range(3) for k in (0, 7)]
    locations += ["R05-M1", "R06", "SYSTEM", "service-card", "R07-X1-N00"]
    return EventStore.from_columns(
        times=np.sort(rng.integers(0, 10_000, n)),
        severities=np.zeros(n, dtype=np.int8),
        facilities=np.zeros(n, dtype=np.int8),
        jobs=rng.integers(-1, 50, n),
        location_ids=rng.integers(0, len(locations), n),
        entry_ids=np.zeros(n, dtype=np.int32),
        subcat_ids=np.zeros(n, dtype=np.int32),
        locations=locations,
        entries=["e"],
        subcats=["s"],
    )


def _per_row_shards(store: EventStore, key: str, shards: int) -> list[int]:
    if key == "job":
        return [int(job) % shards for job in store.jobs]
    return [
        shard_of_key(midplane_of(store.location_table[i]), shards)
        for i in store.location_ids
    ]


@pytest.mark.parametrize("shards", [1, 4, 7])
@pytest.mark.parametrize("key", ["midplane", "job"])
def test_shard_ids_on_selected_chunks_match_per_row_routing(key, shards):
    """Chunks cut by select() share the parent's whole intern table."""
    parent = _wide_parent_store()
    rng = as_generator(shards)
    chunks = [parent.select(slice(lo, lo + 16)) for lo in range(0, len(parent), 16)]
    chunks.append(parent.select(rng.random(len(parent)) < 0.1))
    chunks.append(parent.select(slice(0, 0)))
    chunks.append(parent)
    for chunk in chunks:
        assert list(chunk.location_table) == list(parent.location_table)
        got = shard_ids(chunk, key, shards)
        assert got.dtype == np.int64 and got.shape == (len(chunk),)
        assert got.tolist() == _per_row_shards(chunk, key, shards)
    # The 16-row chunks use far fewer locations than the table holds.
    assert len(np.unique(chunks[0].location_ids)) < len(parent.location_table) // 2


@pytest.mark.parametrize("cap", [None, 5])
@pytest.mark.parametrize("shards", [4, 7])
def test_fresh_table_chunks_route_like_the_reference(fitted, monkeypatch, cap, shards):
    """Daemon chunk stores each come with fresh intern tables; the pool's
    location -> shard memo routes them as the per-event reference does,
    also after the memo has passed its cap and been cleared."""
    import repro.serve.pool as pool_module

    if cap is not None:
        monkeypatch.setattr(pool_module, "_SHARD_CACHE_MAX", cap)
    pool = DetectorPool(fitted[0], shards=shards)
    events = _wide_parent_store().to_events()
    for lo in range(0, len(events), 16):
        chunk = EventStore.from_batch(EventBatch.from_events(events[lo:lo + 16]))
        parts = pool.partition(chunk)
        assert sum(len(part) for _, part in parts) == len(chunk)
        for shard, part in parts:
            assert {reference_shard(ev, "midplane", shards) for ev in part} == {shard}
        assert len(pool._shard_cache) <= (cap or pool_module._SHARD_CACHE_MAX)
    locations = {ev.location for ev in events}
    assert len(locations) > 2 * 5
    if cap is None:
        assert pool._shard_cache.keys() == locations


@pytest.mark.parametrize("key", ["midplane", "job"])
def test_shard_ids_of_an_empty_store(key):
    got = shard_ids(EventStore.from_events([]), key, 4)
    assert got.dtype == np.int64 and got.shape == (0,)


def test_shard_of_key_is_stable():
    # crc32 is unsalted: the mapping is a constant across processes/runs.
    assert shard_of_key("R00-M0", 4) == shard_of_key("R00-M0", 4)
    assert 0 <= shard_of_key("anything", 7) < 7


def test_unknown_key_rejected(fitted):
    meta, test = fitted
    with pytest.raises(ValueError, match="shard key"):
        DetectorPool(meta, shards=2, key="rack")
    with pytest.raises(ValueError, match="shard key"):
        shard_ids(test, "rack", 2)


# ----------------------------------------------------------------- pool


def test_single_shard_pool_equals_plain_session(fitted):
    """shards=1 degenerates to one OnlineSession — identical everything."""
    meta, test = fitted
    session = OnlineSession(meta)
    warnings = session.process_store(test)
    stats = session.finish()

    report = DetectorPool(meta, shards=1, key="midplane").replay(test)
    assert len(report.shards) == 1
    assert report.shards[0].warnings == warnings
    assert report.combined == stats
    assert report.events == len(test)


def test_partition_covers_store_and_preserves_order(fitted):
    meta, test = fitted
    pool = DetectorPool(meta, shards=4, key="midplane")
    parts = pool.partition(test)
    assert sum(len(p) for _, p in parts) == len(test)
    shards = [s for s, _ in parts]
    assert shards == sorted(shards)
    for _, part in parts:
        assert np.all(np.diff(part.times) >= 0)


def test_replay_serial_equals_parallel(fitted):
    """Worker-shipped replay is bit-for-bit the serial replay."""
    meta, test = fitted
    pool = DetectorPool(meta, shards=4, key="midplane")
    serial = pool.replay(test, jobs=1)
    parallel = pool.replay(test, jobs=2)
    assert [s.shard for s in serial.shards] == [s.shard for s in parallel.shards]
    assert [s.stats for s in serial.shards] == [s.stats for s in parallel.shards]
    assert [s.warnings for s in serial.shards] == [
        s.warnings for s in parallel.shards
    ]
    assert serial.combined == parallel.combined


def test_replay_shard_stats_sum_to_combined(fitted):
    meta, test = fitted
    report = DetectorPool(meta, shards=4, key="job").replay(test)
    assert report.combined.events == sum(s.stats.events for s in report.shards)
    assert report.combined.failures == sum(
        s.stats.failures for s in report.shards
    )
    assert report.warnings_total == report.combined.warnings
    assert report.events_per_sec > 0


def test_daemon_mode_matches_replay(fitted):
    """Event-at-a-time routing reaches the same per-shard streams."""
    meta, test = fitted
    pool = DetectorPool(meta, shards=4, key="midplane")
    for chunk in test.iter_chunks(1):
        pool.process_store(chunk)
    daemon_stats = pool.finish()
    replay_stats = DetectorPool(meta, shards=4, key="midplane").replay(test).combined
    assert daemon_stats == replay_stats
    assert daemon_stats == reference_pool_stats(
        meta, test, shards=4, key="midplane"
    )


def test_replay_does_not_touch_daemon_sessions(fitted):
    meta, test = fitted
    pool = DetectorPool(meta, shards=2, key="midplane")
    pool.replay(test)
    assert pool.combined_stats().events == 0


def test_pool_requires_fitted_meta():
    with pytest.raises(ValueError, match="fitted"):
        DetectorPool(MetaLearner(), shards=2)


def test_pool_emits_serve_metrics(fitted):
    from repro.obs import MetricsRegistry, use

    meta, test = fitted
    registry = MetricsRegistry()
    with use(registry):
        DetectorPool(meta, shards=4, key="midplane").replay(test)
    assert "serve.events_per_sec" in registry.gauges
    assert registry.histograms.get("serve.feed_seconds")
    assert registry.histograms.get("serve.pending_warnings")
    assert any(k.startswith("serve.shard_events") for k in registry.counters)
    assert any(s.name == "serve.replay" for s in registry.spans)
