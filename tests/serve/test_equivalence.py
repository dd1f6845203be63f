"""Equivalence suite: chunked feed == per-event reference == offline predict.

The one detection loop (``MetaStream.detect``) is only admissible because it
is *bit-identical* to the per-event reference dispatch in ``tests/oracles.py``;
these tests enforce that element-for-element, on both synthetic-log profiles
(ANL and SDSC event mixes stress different dispatch cases).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.meta.stacked import MetaLearner
from repro.online import OnlineSession
from repro.util.timeutil import MINUTE
from tests.oracles import ReferenceSession, reference_detect


def _fit_split(events):
    cut = int(len(events) * 0.7)
    meta = MetaLearner(
        prediction_window=30 * MINUTE, rule_window=15 * MINUTE
    ).fit(events.select(slice(0, cut)))
    return meta, events.select(slice(cut, len(events)))


@pytest.fixture(scope="module", params=["anl", "sdsc"])
def fitted(request, anl_events, sdsc_events):
    events = anl_events if request.param == "anl" else sdsc_events
    return _fit_split(events)


def _assert_same_warnings(actual, expected):
    assert len(actual) == len(expected)
    for a, b in zip(actual, expected):
        assert (a.issued_at, a.horizon_start, a.horizon_end, a.source, a.detail) \
            == (b.issued_at, b.horizon_start, b.horizon_end, b.source, b.detail)
        assert a.confidence == b.confidence


def test_feed_store_equals_per_event_feed(fitted):
    """The batch loop over a whole store == the per-event reference dispatch."""
    meta, test = fitted
    reference = reference_detect(meta.stream(), test)
    _assert_same_warnings(OnlineSession(meta).process_store(test), reference)


def test_feed_store_equals_offline_predict(fitted):
    meta, test = fitted
    offline = meta.predict(test)
    _assert_same_warnings(OnlineSession(meta).process_store(test), offline)


def test_feed_batch_chunking_is_invariant(fitted):
    """Chunk boundaries must not change the output (state carries over)."""
    meta, test = fitted
    whole = OnlineSession(meta).process_store(test)

    chunked = OnlineSession(meta)
    out = []
    for chunk in test.iter_chunks(17):
        out.extend(chunked.process_store(chunk))
    _assert_same_warnings(out, whole)


def test_feed_batch_rejects_time_disorder(fitted):
    meta, test = fitted
    disordered = test.select(np.array([len(test) - 1, 0]))
    with pytest.raises(ValueError, match="time order"):
        meta.stream().detect(disordered)


def test_feed_batch_rejects_rewind_across_batches(fitted):
    meta, test = fitted
    stream = meta.stream()
    stream.detect(test.select(slice(len(test) - 1, len(test))))
    with pytest.raises(ValueError, match="time order"):
        stream.detect(test.select(slice(0, 1)))


def test_feed_store_empty_store_is_noop(fitted):
    meta, test = fitted
    session = OnlineSession(meta)
    assert session.process_store(test.select(np.array([], dtype=int))) == []
    assert session.stats.events == 0


def test_session_process_store_equals_per_event_process(fitted):
    """SessionStats (every counter, including lead times) must match."""
    meta, test = fitted
    per_event = ReferenceSession(meta)
    reference = []
    for ev in test:
        reference.extend(per_event.process(ev))

    batched = OnlineSession(meta)
    warnings = batched.process_store(test)
    _assert_same_warnings(warnings, reference)
    assert batched.stats == per_event.resolver.stats
    assert batched.pending_count == per_event.resolver.pending_count
    assert batched.finish() == per_event.finish()
