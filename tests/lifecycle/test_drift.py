"""Tests for repro.lifecycle.drift (PSI/chi-square monitor, precision ring)."""

from __future__ import annotations

import pytest

from repro.lifecycle import (
    DriftMonitor,
    PrecisionTracker,
    chi_square_score,
    psi_score,
    subcategory_counts,
)
from repro.obs import MetricsRegistry, use
from repro.online.resolution import SessionStats


# ------------------------------------------------------------ the scores


def test_psi_zero_for_identical_histograms():
    h = {"a": 40, "b": 30, "c": 30}
    assert psi_score(h, h) == pytest.approx(0.0)
    # chi-square retains a tiny smoothing residual (expected counts are
    # computed from the smoothed reference); it must stay negligible.
    assert chi_square_score(h, dict(h)) == pytest.approx(0.0, abs=0.01)


def test_psi_grows_with_shift_magnitude():
    ref = {"a": 50, "b": 50}
    mild = psi_score(ref, {"a": 60, "b": 40})
    severe = psi_score(ref, {"a": 95, "b": 5})
    assert 0.0 < mild < severe
    assert severe > 0.25  # the conventional "shifted" threshold


def test_scores_finite_on_disjoint_label_sets():
    # Add-half smoothing keeps log/0 and /0 out of both statistics.
    ref = {"a": 100}
    live = {"b": 100}
    assert psi_score(ref, live) > 1.0
    assert chi_square_score(ref, live) > 0.0


def test_empty_histograms_score_zero():
    assert psi_score({}, {}) == 0.0
    assert chi_square_score({"a": 3}, {}) == 0.0


# ------------------------------------------------------ precision tracker


def test_precision_tracker_diffs_cumulative_stats():
    tracker = PrecisionTracker(window=8)
    assert tracker.precision() is None
    stats = SessionStats()
    stats.hits, stats.false_alarms = 3, 1
    tracker.observe_stats(stats)
    assert tracker.precision() == pytest.approx(0.75)
    # Same snapshot again: no new resolutions, nothing double-counted.
    tracker.observe_stats(stats)
    assert tracker.resolved == 4
    stats.false_alarms = 5
    tracker.observe_stats(stats)
    assert tracker.precision() == pytest.approx(3 / 8)


def test_precision_tracker_window_evicts_oldest():
    tracker = PrecisionTracker(window=4)
    tracker.observe_resolutions(hits=4, false_alarms=0)
    tracker.observe_resolutions(hits=0, false_alarms=4)
    assert tracker.precision() == 0.0  # the four hits scrolled out


def test_precision_tracker_rejects_negative_deltas():
    tracker = PrecisionTracker()
    with pytest.raises(ValueError):
        tracker.observe_resolutions(hits=-1, false_alarms=0)


# ------------------------------------------------------------ the monitor


def test_monitor_silent_until_window_full():
    monitor = DriftMonitor({"a": 50, "b": 50}, window=100, threshold=0.25)
    monitor.observe_labels(["c"] * 99)  # maximally shifted but warming up
    signal = monitor.evaluate()
    assert signal.score > 0.25 and not signal.drifted
    monitor.observe("c")
    assert monitor.evaluate().drifted


def test_monitor_fires_on_injected_subcategory_shift():
    monitor = DriftMonitor({"a": 60, "b": 40}, window=64, threshold=0.25)
    monitor.observe_labels(["a"] * 38 + ["b"] * 26)  # matches reference
    assert not monitor.evaluate().drifted
    monitor.observe_labels(["b"] * 64)  # the shift scrolls the window
    signal = monitor.evaluate()
    assert signal.drifted and signal.window_events == 64


def _biased_slice(store):
    """An injected subcategory shift: drop the store's 5 dominant labels.

    Deterministic (pure counting over a seeded store) and guaranteed to
    change the mix — the head of the distribution vanishes entirely.
    """
    import numpy as np

    counts = subcategory_counts(store)
    top = {k for k, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:5]}
    table = store.subcat_table
    mask = np.array([table[i] not in top for i in store.subcat_ids.tolist()])
    return store.select(np.flatnonzero(mask))


def test_monitor_silent_on_stationary_synthetic_stream(anl_events):
    """Interleaved halves of one workload: same mix, no drift signal."""
    import numpy as np

    even = anl_events.select(np.arange(0, len(anl_events), 2))
    odd = anl_events.select(np.arange(1, len(anl_events), 2))
    monitor = DriftMonitor(even, window=len(odd), threshold=0.25)
    monitor.observe_store(odd)
    signal = monitor.evaluate()
    assert monitor.window_full
    assert not signal.drifted, f"stationary stream scored PSI {signal.score}"


def test_monitor_fires_on_injected_store_shift(anl_events):
    """Removing the dominant subcategories is an unmistakable shift."""
    biased = _biased_slice(anl_events)
    monitor = DriftMonitor(anl_events, window=len(biased), threshold=0.25)
    monitor.observe_store(biased)
    signal = monitor.evaluate()
    assert signal.drifted
    assert signal.chi_square > 0.0


def test_monitor_is_deterministic(anl_events):
    biased = _biased_slice(anl_events)

    def run():
        m = DriftMonitor(anl_events, window=128)
        m.observe_store(biased)
        return m.score()

    assert run() == run()


def test_rebase_establishes_new_normal(anl_events):
    biased = _biased_slice(anl_events)
    monitor = DriftMonitor(anl_events, window=len(biased), threshold=0.25)
    monitor.observe_store(biased)
    assert monitor.evaluate().drifted
    monitor.rebase(biased)  # retrained on the new workload
    assert not monitor.evaluate().drifted  # window cleared, warming up
    monitor.observe_store(biased)
    assert not monitor.evaluate().drifted  # new normal matches reference


def test_top_label_bucketing_bounds_the_bin_count(anl_events):
    from repro.lifecycle import OTHER_LABEL

    monitor = DriftMonitor(anl_events, window=64, top_labels=10)
    assert len(monitor.reference) <= 11
    assert OTHER_LABEL in monitor.reference
    unbucketed = DriftMonitor(anl_events, window=64, top_labels=None)
    assert len(unbucketed.reference) == len(subcategory_counts(anl_events))


def test_monitor_window_eviction_keeps_counts_consistent():
    monitor = DriftMonitor({"a": 1, "b": 1}, window=4)
    monitor.observe_labels(["a", "a", "b", "b", "a", "a"])
    assert monitor._counts == {"b": 2, "a": 2}
    assert sum(monitor._counts.values()) == 4


def test_evaluate_records_gauges_and_precision():
    registry = MetricsRegistry()
    monitor = DriftMonitor({"a": 1}, window=4)
    stats = SessionStats()
    stats.hits, stats.false_alarms = 1, 1
    with use(registry):
        signal = monitor.evaluate(stats)
    assert registry.gauges["lifecycle.drift_score"] == signal.score
    assert "lifecycle.drift_chi2" in registry.gauges
    assert registry.gauges["lifecycle.live_precision"] == pytest.approx(0.5)


def test_reference_must_be_non_empty():
    with pytest.raises(ValueError, match="reference histogram"):
        DriftMonitor({})


def test_subcategory_counts_passthrough(anl_events):
    counts = subcategory_counts(anl_events)
    assert counts and sum(counts.values()) <= len(anl_events)
