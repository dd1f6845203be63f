"""Small argument-validation helpers.

Centralizing these keeps error messages consistent and the call sites terse;
they are used at public API boundaries, not in inner loops.
"""

from __future__ import annotations

import numpy as np


def check_fraction(value: float, name: str) -> float:
    """Require ``0.0 <= value <= 1.0``; return the value for chaining."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)


def check_positive(value: float, name: str) -> float:
    """Require ``value > 0``; return ``float(value)`` for chaining."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return float(value)


def check_in_range(value: float, lo: float, hi: float, name: str) -> float:
    """Require ``lo <= value <= hi``; return ``float(value)`` for chaining.

    The general form of :func:`check_fraction` for quantities with other
    closed bounds (e.g. a correlation in [-1, 1]); repro-lint's RL005 rule
    accepts either as a valid fraction guard.
    """
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo:g}, {hi:g}], got {value!r}")
    return float(value)


def check_sorted(arr: np.ndarray, name: str) -> np.ndarray:
    """Require a 1-D array sorted in non-decreasing order."""
    a = np.asarray(arr)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {a.shape}")
    if a.size > 1 and np.any(np.diff(a) < 0):
        raise ValueError(f"{name} must be sorted in non-decreasing order")
    return a
