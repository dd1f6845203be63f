"""Shared utilities: time handling, RNG management, validation, windows.

These helpers are deliberately dependency-light (NumPy only) and are used by
every other subpackage.  Nothing in here is specific to Blue Gene/L.
"""

from repro.util.rng import as_generator, spawn_child
from repro.util.timeutil import (
    MINUTE,
    HOUR,
    DAY,
    format_epoch,
    format_bgl_date,
    format_bgl_timestamp,
)
from repro.util.validation import (
    check_fraction,
    check_positive,
    check_sorted,
)
from repro.util.windows import (
    count_in_windows,
    events_in_window,
    window_slice,
)

__all__ = [
    "MINUTE",
    "HOUR",
    "DAY",
    "as_generator",
    "spawn_child",
    "format_epoch",
    "format_bgl_date",
    "format_bgl_timestamp",
    "check_fraction",
    "check_positive",
    "check_sorted",
    "count_in_windows",
    "events_in_window",
    "window_slice",
]
