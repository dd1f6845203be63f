"""Warning lead-time analysis.

The paper motivates prediction with proactive fault tolerance — checkpoint,
job migration, failure-aware scheduling (§1) — and argues the prediction
window must exceed 5 minutes because anything shorter is "too small for
taking preventive action".  Whether an action fits depends on the *lead
time*: how long before a failure its earliest covering warning was issued.

:func:`lead_time_profile` turns a :class:`~repro.evaluation.matching.MatchResult`
into the curve operators care about: for each minimum lead requirement, the
fraction of failures predicted with at least that much notice (*actionable
recall*).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.evaluation.matching import MatchResult
from repro.util.timeutil import MINUTE

#: Default action-cost grid: 1, 2, 5, 10, 20, 30 minutes of required notice.
DEFAULT_LEADS: tuple[float, ...] = tuple(
    m * MINUTE for m in (1, 2, 5, 10, 20, 30)
)


@dataclass(frozen=True)
class LeadTimePoint:
    """Actionable recall at one minimum-lead requirement."""

    min_lead: float
    #: Failures predicted with >= min_lead notice / all failures.
    actionable_recall: float
    #: ... / predicted failures only (how much coverage survives the bar).
    coverage_retention: float

    @property
    def min_lead_minutes(self) -> float:
        return self.min_lead / MINUTE


def lead_time_profile(
    match: MatchResult,
    leads: Sequence[float] = DEFAULT_LEADS,
) -> list[LeadTimePoint]:
    """Actionable recall as a function of the required lead time."""
    lead = match.lead_seconds
    n_fatals = lead.size
    covered = ~np.isnan(lead)
    n_covered = int(covered.sum())
    points: list[LeadTimePoint] = []
    for req in leads:
        if n_fatals == 0:
            ar, cr = 1.0, 1.0
        else:
            ok = int((lead[covered] >= req).sum()) if n_covered else 0
            ar = ok / n_fatals
            cr = 1.0 if n_covered == 0 else ok / n_covered
        points.append(
            LeadTimePoint(
                min_lead=float(req),
                actionable_recall=ar,
                coverage_retention=cr,
            )
        )
    return points


def lead_time_summary(match: MatchResult) -> dict:
    """Distributional summary of the lead times of covered failures."""
    lead = match.lead_seconds
    covered = lead[~np.isnan(lead)]
    if covered.size == 0:
        return {
            "covered": 0,
            "mean": float("nan"),
            "median": float("nan"),
            "p10": float("nan"),
            "p90": float("nan"),
        }
    return {
        "covered": int(covered.size),
        "mean": float(covered.mean()),
        "median": float(np.median(covered)),
        "p10": float(np.percentile(covered, 10)),
        "p90": float(np.percentile(covered, 90)),
    }
