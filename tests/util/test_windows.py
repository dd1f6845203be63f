"""Tests for repro.util.windows."""

import numpy as np
import pytest

from repro.util.windows import (
    count_in_windows,
    events_in_window,
    window_slice,
)


@pytest.fixture
def times():
    return np.array([0.0, 10.0, 20.0, 30.0, 100.0])


def test_window_slice_half_open(times):  # repro-lint: sorted
    sl = window_slice(times, 10, 30)
    assert (sl.start, sl.stop) == (1, 3)  # 10 included, 30 excluded


def test_window_slice_empty(times):  # repro-lint: sorted
    sl = window_slice(times, 40, 90)
    assert sl.start == sl.stop


def test_events_in_window(times):  # repro-lint: sorted
    assert list(events_in_window(times, 0, 25)) == [0, 1, 2]


def test_count_in_windows_basic(times):
    # For each anchor, count events in [a+1, a+15).
    counts = count_in_windows(times, times, 1, 15)
    # anchor 0 -> {10}; 10 -> {20}; 20 -> {30}; 30 -> {}; 100 -> {}.
    assert list(counts) == [1, 1, 1, 0, 0]


def test_count_in_windows_excludes_self_with_positive_lo(times):
    counts = count_in_windows(times, times, 0.5, 5)
    assert counts.sum() == 0


def test_count_in_windows_requires_sorted():
    with pytest.raises(ValueError):
        count_in_windows(np.array([3.0, 1.0]), np.array([0.0]), 0, 1)
