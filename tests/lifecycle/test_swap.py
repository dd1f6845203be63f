"""Hot-swap equivalence: a mid-stream swap must be invisible in the output.

The lifecycle design's central claim (docs/lifecycle.md): swapping a new
model into a live session at a chunk barrier produces a post-barrier
warning stream **element-for-element identical** to stopping the old
session at that barrier and cold-starting the new model on the remaining
stream.  These tests pin that claim at both the session and the pool level,
plus the zero-downtime half of the bargain — warnings the old model issued
before the barrier still resolve afterwards.
"""

from __future__ import annotations

import pytest

from repro.online import OnlineSession
from repro.serve import DetectorPool

from tests.lifecycle.conftest import warning_key
from tests.oracles import ReferenceSession


def _split(live, frac=0.5):
    cut = int(len(live) * frac)
    return live.select(slice(0, cut)), live.select(slice(cut, len(live)))


# ------------------------------------------------------------- session


def test_session_swap_equals_cold_restart(two_models):
    meta_a, meta_b, live = two_models
    head, tail = _split(live)

    hot = OnlineSession(meta_a)
    hot.process_store(head)
    hot.swap_model(meta_b)
    swapped_tail = hot.process_store(tail)

    cold = OnlineSession(meta_b)
    cold_tail = cold.process_store(tail)

    assert swapped_tail, "split emits no post-barrier warnings (vacuous test)"
    assert warning_key(swapped_tail) == warning_key(cold_tail)
    # The new model really is different: the old one answers differently.
    old_model_tail = OnlineSession(meta_a).process_store(tail)
    assert warning_key(swapped_tail) != warning_key(old_model_tail)


def test_session_swap_equals_cold_restart_per_event(two_models):
    """The same equivalence through the per-event reference session."""
    meta_a, meta_b, live = two_models
    head, tail = _split(live)

    hot = ReferenceSession(meta_a)
    for ev in head:
        hot.process(ev)
    hot.swap_model(meta_b)
    swapped = [w for ev in tail for w in hot.process(ev)]

    cold = OnlineSession(meta_b)
    cold_tail = cold.process_store(tail)

    assert warning_key(swapped) == warning_key(cold_tail)


def test_swap_preserves_pending_warning_resolution(two_models):
    """Old-model warnings keep resolving — the zero-downtime advantage."""
    meta_a, meta_b, live = two_models
    head, tail = _split(live)

    hot = OnlineSession(meta_a)
    head_warnings = hot.process_store(head)
    hot.swap_model(meta_b)
    tail_warnings = hot.process_store(tail)
    stats = hot.finish()
    # Every warning either model issued is accounted for: resolution state
    # survived the swap (a cold restart would orphan the pending ones).
    assert stats.warnings == len(head_warnings) + len(tail_warnings)
    assert stats.hits + stats.false_alarms == stats.warnings
    assert stats.events == len(live)


def test_swap_requires_fitted_model(two_models):
    from repro.meta.stacked import MetaLearner

    meta_a, _, _ = two_models
    pool = DetectorPool(meta_a, shards=2)
    with pytest.raises(ValueError, match="fitted"):
        pool.swap_model(MetaLearner())
    with pytest.raises(TypeError, match="MetaLearner"):
        pool.swap_model(object())


# ---------------------------------------------------------------- pool


def test_pool_swap_equals_cold_pool(two_models):
    meta_a, meta_b, live = two_models
    head, tail = _split(live)

    hot_pool = DetectorPool(meta_a, shards=3)
    hot_pool.process_store(head)
    swapped = hot_pool.swap_model(meta_b)
    assert swapped >= 1  # at least one live session existed
    hot_tail = hot_pool.process_store(tail)

    cold_pool = DetectorPool(meta_b, shards=3)
    cold_tail = cold_pool.process_store(tail)

    assert hot_tail, "split emits no post-barrier warnings (vacuous test)"
    assert warning_key(hot_tail) == warning_key(cold_tail)


def test_pool_swap_covers_lazily_created_sessions(two_models):
    """Shards first touched *after* the swap also serve the new model."""
    meta_a, meta_b, live = two_models
    head, tail = _split(live, frac=0.2)

    pool = DetectorPool(meta_a, shards=1)  # shard 0 only, for determinism
    pool.process_store(head)
    pool.swap_model(meta_b)
    assert pool.meta is meta_b
    assert pool.session(0).meta is meta_b


def test_pool_swap_accepts_meta_bearing_objects(two_models, fitted_predictors):
    meta_a, _, _ = two_models
    pool = DetectorPool(meta_a, shards=2)
    pool.session(0)  # force one live session
    three_phase = fitted_predictors["three-phase"]
    pool.swap_model(three_phase)  # duck-typed: exposes .meta
    assert pool.meta is three_phase.meta


def test_pool_swap_emits_metrics(two_models):
    from repro.obs import MetricsRegistry, use

    meta_a, meta_b, live = two_models
    head, _ = _split(live)
    registry = MetricsRegistry()
    with use(registry):
        pool = DetectorPool(meta_a, shards=2)
        pool.process_store(head)
        pool.swap_model(meta_b)
    assert registry.counters.get("serve.swaps") == 1
    assert len(registry.histograms.get("serve.swap_seconds", [])) == 1
    assert "serve.swap_pending_warnings" in registry.histograms
