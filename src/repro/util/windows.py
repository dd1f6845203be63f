"""Vectorized time-window primitives.

Both the statistical predictor (``is there a fatal event within W seconds
after t?``) and the rule predictor (``which events fall in [t - G, t)?``)
reduce to range queries over a sorted timestamp array.  These helpers express
those queries with :func:`numpy.searchsorted` so the per-event cost is
O(log n) instead of a Python-level scan — the difference between seconds and
hours on the full-scale ANL log.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_sorted


def window_slice(times: np.ndarray, start: float, end: float) -> slice:  # repro-lint: sorted
    """Return the slice of ``times`` (sorted) with ``start <= t < end``.

    Hot path: callers guarantee order (``EventStore.times`` is sorted by
    construction); an O(n) ``check_sorted`` here would defeat the O(log n)
    query — hence the explicit waiver.
    """
    lo = int(np.searchsorted(times, start, side="left"))
    hi = int(np.searchsorted(times, end, side="left"))
    return slice(lo, hi)


def events_in_window(times: np.ndarray, start: float, end: float) -> np.ndarray:  # repro-lint: sorted
    """Indices of events with ``start <= t < end`` in a sorted time array."""
    sl = window_slice(times, start, end)
    return np.arange(sl.start, sl.stop)


def count_in_windows(
    times: np.ndarray,
    anchors: np.ndarray,
    offset_lo: float,
    offset_hi: float,
) -> np.ndarray:
    """For each anchor ``a`` count events with ``a+offset_lo <= t < a+offset_hi``.

    Fully vectorized: two ``searchsorted`` calls over all anchors at once.
    Used to estimate follow-up failure probabilities (Figure 2 CDF, the
    statistical predictor's training step).
    """
    times = check_sorted(np.asarray(times, dtype=np.float64), "times")
    anchors = np.asarray(anchors, dtype=np.float64)
    lo = np.searchsorted(times, anchors + offset_lo, side="left")
    hi = np.searchsorted(times, anchors + offset_hi, side="left")
    return (hi - lo).astype(np.int64)
