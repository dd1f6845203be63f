"""Statistical base predictor (paper §3.2.1).

Training measures the *temporal correlation among fatal events*: for each
main category, the probability that a fatal event of that category is
followed by another fatal event within the prediction band.  Categories whose
follow-up probability clears a threshold become *trigger categories* — on the
paper's logs those are exactly the network and I/O-stream failures ("a
significant number of failures happen in close proximity, and ... network and
I/O stream related failures form a majority of such failures").

Prediction then implements the paper's sentence literally: "if a network or
I/O stream failure is reported, it is predicted that another failure is
possible within a time period of 5 minutes to 1 hour" — i.e. each reported
trigger-category fatal event raises one warning whose horizon is the
``[lead, window]`` band after it.

:func:`failure_gap_cdf` computes the Figure-2 curve: the cumulative
distribution of the waiting time to the next failure.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.obs import get_registry
from repro.predictors.base import FailureWarning, Predictor, dedup_warnings
from repro.ras.store import EventStore
from repro.taxonomy.categories import MainCategory
from repro.taxonomy.classifier import TaxonomyClassifier
from repro.util.timeutil import HOUR, MINUTE
from repro.util.validation import check_fraction, check_positive
from repro.util.windows import count_in_windows


def failure_gap_cdf(
    events: EventStore, grid: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """CDF of the gap between consecutive fatal events (paper Figure 2).

    Returns ``(grid_seconds, cdf)`` where ``cdf[i]`` is the fraction of
    fatal events followed by another fatal event within ``grid_seconds[i]``.
    """
    if grid is None:
        # 30 s .. 48 h, log-ish spacing like the paper's hour-scale plot.
        grid = np.unique(
            np.concatenate(
                [
                    np.arange(30, 10 * MINUTE, 30),
                    np.arange(10 * MINUTE, 2 * HOUR, 5 * MINUTE),
                    np.arange(2 * HOUR, 48 * HOUR, HOUR),
                ]
            )
        ).astype(np.float64)
    fatal_times = events.fatal_events().times.astype(np.float64)
    if fatal_times.size < 2:
        return grid, np.zeros_like(grid, dtype=np.float64)
    gaps = np.diff(fatal_times)
    cdf = np.searchsorted(np.sort(gaps), grid, side="right") / gaps.size
    return grid, cdf


class StatisticalPredictor(Predictor):
    """Temporal-correlation predictor over fatal events.

    Parameters
    ----------
    window:
        End of the prediction band after a trigger event (paper: 1 hour for
        Table 5; swept 5-60 min when embedded in the meta-learner).
    lead:
        Start of the band (paper: 5 minutes for Table 5 — "a time window
        smaller than 5 minutes becomes too small for taking preventive
        action").  A value of 0 still excludes the trigger second itself.
    trigger_threshold:
        Minimum follow-up probability for a category to become a trigger.
    categories:
        Explicit trigger categories; ``None`` selects them from the data
        (the paper's analysis step arriving at {network, iostream}).
    deduplicate:
        If True, suppress warnings while an identical one is active.  The
        paper's accounting is per reported failure, so the default is False.
    """

    name = "statistical"

    def __init__(
        self,
        window: float = HOUR,
        lead: float = 5 * MINUTE,
        trigger_threshold: float = 0.25,
        categories: Optional[Sequence[MainCategory]] = None,
        classifier: Optional[TaxonomyClassifier] = None,
        deduplicate: bool = False,
    ) -> None:
        super().__init__()
        check_positive(window, "window")
        if lead < 0 or lead >= window:
            raise ValueError("lead must satisfy 0 <= lead < window")
        check_fraction(trigger_threshold, "trigger_threshold")
        self.window = float(window)
        self.lead = float(lead)
        self.trigger_threshold = trigger_threshold
        self.forced_categories = tuple(categories) if categories else None
        self.classifier = classifier or TaxonomyClassifier()
        self.deduplicate = deduplicate
        #: Learned follow-up probability per MainCategory.
        self.follow_probability: dict[MainCategory, float] = {}
        #: Selected trigger categories after fit().
        self.trigger_categories: tuple[MainCategory, ...] = ()

    @classmethod
    def from_state(
        cls,
        *,
        window: float,
        lead: float,
        trigger_threshold: float,
        deduplicate: bool,
        follow_probability: dict[MainCategory, float],
        trigger_categories: Sequence[MainCategory],
        classifier: Optional[TaxonomyClassifier] = None,
    ) -> "StatisticalPredictor":
        """Rebuild a *fitted* predictor from previously learned state.

        The public restore path used by model deserialization and the
        artifact cache; equivalent to a :meth:`fit` that arrived at exactly
        this state.
        """
        sp = cls(
            window=window,
            lead=lead,
            trigger_threshold=trigger_threshold,
            deduplicate=deduplicate,
            classifier=classifier,
        )
        return sp.restore_state(dict(follow_probability), trigger_categories)

    def restore_state(
        self,
        follow_probability: dict[MainCategory, float],
        trigger_categories: Sequence[MainCategory],
    ) -> "StatisticalPredictor":
        """Install learned state onto this instance and mark it fitted."""
        self.follow_probability = dict(follow_probability)
        self.trigger_categories = tuple(trigger_categories)
        self.mark_fitted()
        return self

    # -- training -------------------------------------------------------- #

    def _band(self) -> tuple[float, float]:
        """The (strictly positive) offset band of the horizon."""
        lo = max(self.lead, 1.0)
        return lo, self.window

    def fit(self, events: EventStore) -> "StatisticalPredictor":
        """Estimate per-category follow-up probabilities on the training set."""
        obs = get_registry()
        with obs.span("phase2.fit.statistical"):
            fatal = events.fatal_events()
            self.follow_probability = {}
            if len(fatal) == 0:
                self.trigger_categories = ()
                self._fitted = True
                return self
            cat_ids = self.classifier.main_category_ids(fatal)
            fatal_times = fatal.times.astype(np.float64)
            lo, hi = self._band()
            cats = list(MainCategory)
            for i, cat in enumerate(cats):
                anchors = fatal_times[cat_ids == i]
                if anchors.size == 0:
                    continue
                # +1 on the upper offset: the horizon is a closed interval at
                # second granularity, count_in_windows is half-open.
                follow = count_in_windows(fatal_times, anchors, lo, hi + 1) > 0
                self.follow_probability[cat] = float(follow.mean())
            if self.forced_categories is not None:
                self.trigger_categories = tuple(self.forced_categories)
            else:
                self.trigger_categories = tuple(
                    cat
                    for cat, p in sorted(
                        self.follow_probability.items(), key=lambda kv: -kv[1]
                    )
                    if p >= self.trigger_threshold
                )
        obs.gauge(
            "predictor.trigger_categories", len(self.trigger_categories)
        )
        self._fitted = True
        return self

    # -- prediction ------------------------------------------------------ #

    def predict(self, events: EventStore) -> list[FailureWarning]:
        """One warning per reported trigger-category fatal event."""
        self._check_fitted()
        fatal = events.fatal_events()
        if len(fatal) == 0 or not self.trigger_categories:
            return []
        cat_ids = self.classifier.main_category_ids(fatal)
        cats = list(MainCategory)
        trigger_idx = {cats.index(c) for c in self.trigger_categories}
        lo, hi = self._band()
        warnings: list[FailureWarning] = []
        for k in range(len(fatal)):
            ci = int(cat_ids[k])
            if ci not in trigger_idx:
                continue
            cat = cats[ci]
            t = int(fatal.times[k])
            warnings.append(
                FailureWarning(
                    issued_at=t,
                    horizon_start=int(t + lo),
                    horizon_end=int(t + hi),
                    confidence=self.follow_probability.get(cat, 0.0),
                    source=self.name,
                    detail=cat.value,
                )
            )
        if self.deduplicate:
            warnings = dedup_warnings(warnings)
        get_registry().counter(
            "predictor.warnings", len(warnings), source=self.name
        )
        return warnings

    def candidate_confidence(self, category: MainCategory) -> Optional[float]:
        """Confidence the method would assign to a trigger of ``category``.

        Returns ``None`` when the category is not a trigger — used by the
        meta-learner's higher-confidence dispatch.
        """
        self._check_fitted()
        if category not in self.trigger_categories:
            return None
        return self.follow_probability.get(category, 0.0)
