"""Differential tests: serving with compiled tables == the per-chunk path.

``DetectorPool`` and ``ActionEngine`` compile their lookup tables once per
model (the statistical confidence map) or once per intern table (label ->
item, location -> shard, location -> midplane), and one shard takes a chunk
without partitioning it.  Random chunkings of one classified stream are fed
to them and to the oracles in ``tests/oracles.py`` that rebuild every map
per chunk (``item_ids_for``, ``shard_ids``, row-by-row ``view.observe``):
warnings, ``SessionStats`` and ledger digests must be equal.  The chunks are
``select`` cuts of one store (the cache hits), the same rows rebuilt as
fresh stores (daemon-style, the cache misses), stores sharing intern tables
that grow between calls, and any mix of these, with a model swap mid-stream.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
import pytest

from repro.actions import ActionEngine, CostModel, build_policy
from repro.meta.stacked import MetaLearner
from repro.ras.backend import COLUMN_NAMES, TABLE_NAMES, InternTable
from repro.ras.store import EventBatch, EventStore
from repro.serve import DetectorPool
from repro.taxonomy.categories import MainCategory
from repro.util.rng import as_generator
from repro.util.timeutil import MINUTE
from tests.oracles import PerChunkPool, RowByRowEngine

LAYOUTS = [(1, "midplane"), (4, "midplane"), (4, "job")]
CHUNK_KINDS = ("select", "fresh", "grown", "mixed")


@pytest.fixture(scope="module")
def models(anl_events):
    """A model fitted on the head, a second one for the swap, and the tail."""
    cut = int(len(anl_events) * 0.6)
    first = MetaLearner(prediction_window=30 * MINUTE, rule_window=15 * MINUTE)
    second = MetaLearner(prediction_window=20 * MINUTE, rule_window=10 * MINUTE)
    first.fit(anl_events.select(slice(0, cut)))
    second.fit(anl_events.select(slice(cut // 3, cut)))
    return first, second, anl_events.select(slice(cut, len(anl_events)))


def _fresh(chunk: EventStore) -> EventStore:
    return EventStore.from_batch(EventBatch.from_events(chunk.to_events()))


def _on_tables(chunk: EventStore, tables: dict[str, InternTable]) -> EventStore:
    """The chunk's rows on shared intern tables, interning what is new."""
    columns = EventBatch.from_events(chunk.to_events()).columns(tables)
    return EventStore(*(columns[n] for n in COLUMN_NAMES), *(tables[n] for n in TABLE_NAMES))


def _chunks(test: EventStore, kind: str, seed: int) -> Iterator[EventStore]:
    """A seeded random chunking, built lazily so shared tables grow between calls."""
    rng = as_generator(seed)
    tables = {name: InternTable() for name in TABLE_NAMES}
    lo = 0
    while lo < len(test):
        hi = lo + int(rng.integers(1, 40))
        chunk = test.select(slice(lo, hi))
        pick = kind if kind != "mixed" else CHUNK_KINDS[int(rng.integers(0, 3))]
        if pick == "fresh":
            chunk = _fresh(chunk)
        elif pick == "grown":
            chunk = _on_tables(chunk, tables)
        yield chunk
        lo = hi


def _key(w):
    return (w.issued_at, w.horizon_start, w.horizon_end, w.source, w.detail, w.confidence)


def _serve(pool, engine, chunks, swap_at, model):
    warnings = []
    for i, chunk in enumerate(chunks):
        if i == swap_at:
            pool.swap_model(model)
        raised = pool.process_store(chunk)
        engine.observe_store(chunk, raised)
        warnings.append([_key(w) for w in raised])
    return warnings, pool.finish(), engine.finalize().digest()


@pytest.mark.parametrize("shards,key", LAYOUTS)
@pytest.mark.parametrize("kind", CHUNK_KINDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_compiled_tables_equal_per_chunk_path(models, shards, key, kind, seed):
    first, second, test = models
    # The swap lands mid-stream for the mixed chunking, never for the others.
    swap_at = 8 if kind == "mixed" else -1

    pool = DetectorPool(first, shards=shards, key=key)
    oracle = PerChunkPool(first, shards=shards, key=key)
    for chunk in _chunks(test, kind, seed):
        got, want = pool.partition(chunk), oracle.partition(chunk)
        assert [s for s, _ in got] == [s for s, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.location_ids, b.location_ids)

    served = _serve(
        pool, ActionEngine(build_policy("cost-aware"), CostModel()),
        _chunks(test, kind, seed), swap_at, second,
    )
    reference = _serve(
        oracle, RowByRowEngine(build_policy("cost-aware"), CostModel()),
        _chunks(test, kind, seed), swap_at, second,
    )
    assert served[0] == reference[0]
    assert served[1] == reference[1]
    assert served[2] == reference[2]
    assert sum(map(len, served[0])) > 0


def _confidences(meta: MetaLearner) -> dict:
    return {c: meta.statistical.candidate_confidence(c) for c in MainCategory}


def test_stream_tables_follow_model_and_label_table(models):
    """The confidence map is the model's; the label remap tracks its table."""
    first, second, test = models
    stream = first.stream()
    assert stream._stat_conf_map == _confidences(first)
    tables = {name: InternTable() for name in TABLE_NAMES}
    for chunk in [*_chunks(test, "grown", 3), *_chunks(test, "mixed", 4)]:
        want = PerChunkPool(first, 1, "midplane")._session(0)._stream.item_ids(chunk)
        assert np.array_equal(stream.item_ids(chunk), want)
        assert np.array_equal(stream.item_ids(_on_tables(chunk, tables)), want)
    assert second.stream()._stat_conf_map == _confidences(second)
