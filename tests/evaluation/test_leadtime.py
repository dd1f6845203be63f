"""Tests for repro.evaluation.leadtime."""

import math

import numpy as np
import pytest

from repro.evaluation.leadtime import lead_time_profile, lead_time_summary
from repro.evaluation.matching import MatchResult, match_warnings
from repro.evaluation.metrics import Metrics


def _match(leads, n_fatals=None):
    leads = np.array(leads, dtype=float)
    n = n_fatals if n_fatals is not None else leads.size
    covered = ~np.isnan(leads)
    return MatchResult(
        metrics=Metrics(0, 0, n, int(covered.sum())),
        warning_hit=np.zeros(0, dtype=bool),
        fatal_covered=covered,
        lead_seconds=leads,
    )


def test_profile_known_values():
    # Leads: 30 s, 120 s, 600 s, one uncovered.
    m = _match([30, 120, 600, np.nan])
    points = lead_time_profile(m, leads=[60, 300])
    assert points[0].min_lead_minutes == 1
    assert points[0].actionable_recall == pytest.approx(2 / 4)
    assert points[0].coverage_retention == pytest.approx(2 / 3)
    assert points[1].actionable_recall == pytest.approx(1 / 4)


def test_profile_monotone_decreasing():
    m = _match([30, 120, 600, 1800, np.nan, np.nan])
    points = lead_time_profile(m)
    ar = [p.actionable_recall for p in points]
    assert ar == sorted(ar, reverse=True)


def test_profile_no_failures():
    m = _match([], n_fatals=0)
    points = lead_time_profile(m, leads=[60])
    assert points[0].actionable_recall == 1.0


def test_profile_all_uncovered():
    m = _match([np.nan, np.nan])
    [p] = lead_time_profile(m, leads=[60])
    assert p.actionable_recall == 0.0
    assert p.coverage_retention == 1.0  # vacuous: nothing covered


def test_summary_statistics():
    m = _match([60, 120, 180, np.nan])
    s = lead_time_summary(m)
    assert s["covered"] == 3
    assert s["median"] == pytest.approx(120)
    assert s["mean"] == pytest.approx(120)


def test_summary_empty():
    s = lead_time_summary(_match([np.nan]))
    assert s["covered"] == 0
    assert math.isnan(s["mean"])


def test_end_to_end_on_meta(anl_events):
    """Structural properties of leads on a real prediction run (the small
    session fixture has only a handful of test failures, so assert shape,
    not magnitude — the benches measure magnitude at scale)."""
    from repro.meta.stacked import MetaLearner
    from repro.util.timeutil import MINUTE

    cut = int(len(anl_events) * 0.5)
    meta = MetaLearner(
        prediction_window=30 * MINUTE, rule_window=15 * MINUTE
    ).fit(anl_events.select(slice(0, cut)))
    test = anl_events.select(slice(cut, len(anl_events)))
    match = match_warnings(meta.predict(test), test)
    assert match.metrics.covered_fatals > 0
    points = lead_time_profile(match, leads=[30, 60, 5 * MINUTE])
    ar = [p.actionable_recall for p in points]
    assert ar == sorted(ar, reverse=True)
    assert ar[0] > 0.0
    summary = lead_time_summary(match)
    assert summary["covered"] == match.metrics.covered_fatals
    assert summary["mean"] > 0
