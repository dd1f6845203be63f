"""Matching warning streams against observed failures.

A warning is a *true positive* when at least one fatal event falls inside its
closed horizon ``[horizon_start, horizon_end]``; a fatal event is *covered*
when at least one warning's horizon contains it.  Both directions are
computed vectorized with two ``searchsorted`` passes plus a difference-array
coverage accumulation — no quadratic warning x failure loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.evaluation.metrics import Metrics
from repro.predictors.base import FailureWarning
from repro.ras.store import EventStore


@dataclass
class MatchResult:
    """Detailed outcome of matching one warning stream to one test fold."""

    metrics: Metrics
    #: Per-warning: did a failure occur within the horizon?
    warning_hit: np.ndarray
    #: Per-fatal-event: was it covered by any warning horizon?
    fatal_covered: np.ndarray
    #: For covered fatals, lead time from the earliest covering warning's
    #: issue to the failure (NaN for uncovered).
    lead_seconds: np.ndarray

    @property
    def mean_lead(self) -> float:
        """Mean warning lead time over covered failures (NaN if none)."""
        covered = self.lead_seconds[~np.isnan(self.lead_seconds)]
        return float(covered.mean()) if covered.size else float("nan")


def match_warnings(
    warnings: Sequence[FailureWarning],
    test_events: EventStore,
) -> MatchResult:
    """Score a warning stream against the fatal events of a test store."""
    fatal_times = test_events.fatal_events().times.astype(np.int64)
    n_fatals = int(fatal_times.size)
    n_warnings = len(warnings)
    if n_warnings == 0:
        return MatchResult(
            metrics=Metrics(0, 0, n_fatals, 0),
            warning_hit=np.zeros(0, dtype=bool),
            fatal_covered=np.zeros(n_fatals, dtype=bool),
            lead_seconds=np.full(n_fatals, np.nan),
        )

    starts = np.array([w.horizon_start for w in warnings], dtype=np.int64)
    ends = np.array([w.horizon_end for w in warnings], dtype=np.int64)
    issued = np.array([w.issued_at for w in warnings], dtype=np.int64)

    # Warning -> hit: any fatal inside [start, end].
    lo = np.searchsorted(fatal_times, starts, side="left")
    hi = np.searchsorted(fatal_times, ends, side="right")
    warning_hit = hi > lo

    # Fatal -> covered + earliest covering warning's issue time.
    fatal_covered = np.zeros(n_fatals, dtype=bool)
    lead = np.full(n_fatals, np.nan)
    if n_fatals:
        # Difference-array coverage count over fatal indices.
        cover = np.zeros(n_fatals + 1, dtype=np.int64)
        np.add.at(cover, lo, 1)
        np.add.at(cover, hi, -1)
        fatal_covered = np.cumsum(cover[:-1]) > 0
        # Earliest issuing warning per fatal: iterate warnings sorted by
        # issue time and fill uncovered slots once (each fatal written at
        # most once -> linear in coverage size).
        order = np.argsort(issued, kind="stable")
        filled = np.zeros(n_fatals, dtype=bool)
        for wi in order:
            a, b = int(lo[wi]), int(hi[wi])
            if a >= b:
                continue
            span = slice(a, b)
            need = ~filled[span]
            if need.any():
                idx = np.flatnonzero(need) + a
                lead[idx] = fatal_times[idx] - issued[wi]
                filled[idx] = True

    metrics = Metrics(
        n_warnings=n_warnings,
        tp_warnings=int(np.count_nonzero(warning_hit)),
        n_fatals=n_fatals,
        covered_fatals=int(np.count_nonzero(fatal_covered)),
    )
    return MatchResult(
        metrics=metrics,
        warning_hit=warning_hit,
        fatal_covered=fatal_covered,
        lead_seconds=lead,
    )
