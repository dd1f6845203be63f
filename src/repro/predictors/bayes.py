"""Naive-Bayes window classifier (related-work baseline).

The paper's related work cites Bayesian failure prediction (Hamerly & Elkan's
disk-drive work, its [14]).  This predictor brings that family onto the RAS
substrate as a third base method:

- **Training** tiles the log into fixed windows
  (:func:`repro.mining.transactions.build_tiled_windows`) and learns, with
  Laplace smoothing, ``P(subcategory present | next window has a failure)``
  and the same under no-failure — a Bernoulli naive Bayes over the *presence*
  of each non-fatal subcategory, scored against whether a fatal event occurs
  in the *following* window.
- **Prediction** slides over the test stream; whenever the posterior odds of
  "failure imminent" given the current window's contents exceed the decision
  threshold, it raises a warning with the posterior as confidence.

Compared to the paper's rule-based method this trades interpretability for
coverage: it fires on *soft* evidence (combinations that never formed a
support-worthy rule), which is exactly the behaviour worth ablating against
(`benchmarks/bench_ext_bayes.py`).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from repro.mining.rules import item_ids_for
from repro.mining.transactions import build_tiled_windows
from repro.predictors.base import FailureWarning, Predictor
from repro.ras.store import EventStore
from repro.util.timeutil import MINUTE
from repro.util.validation import check_fraction, check_positive


class BayesPredictor(Predictor):
    """Bernoulli naive Bayes over window contents.

    Parameters
    ----------
    window:
        Tiling/observation window width, seconds (also the warning horizon).
    threshold:
        Posterior probability of imminent failure above which a warning is
        raised.
    alpha:
        Laplace smoothing pseudo-count.
    """

    name = "bayes"

    def __init__(
        self,
        window: float = 30 * MINUTE,
        threshold: float = 0.5,
        alpha: float = 1.0,
    ) -> None:
        super().__init__()
        check_positive(window, "window")
        check_fraction(threshold, "threshold")
        check_positive(alpha, "alpha")
        self.window = float(window)
        self.threshold = threshold
        self.alpha = alpha
        #: log P(item present | class) for class in (no-failure, failure).
        self._log_present: Optional[np.ndarray] = None  # (2, n_items)
        self._log_absent: Optional[np.ndarray] = None
        self._log_prior: Optional[np.ndarray] = None  # (2,)
        self._n_items: int = 0
        #: Fit-time label name -> item id; stores map into it by name.
        self._item_index: dict[str, int] = {}

    # -- training --------------------------------------------------------- #

    def fit(self, events: EventStore) -> "BayesPredictor":
        db = build_tiled_windows(events, window=self.window)
        self._n_items = len(db.item_names)
        self._item_index = {name: i for i, name in enumerate(db.item_names)}
        n_items = self._n_items
        # Label window i by whether window i+1 contains a failure: the
        # predictor must act *before* the failure's window.
        present = np.zeros((2, n_items), dtype=np.float64)
        class_counts = np.zeros(2, dtype=np.float64)
        for i in range(len(db) - 1):
            label = 1 if db.heads[i + 1] else 0
            class_counts[label] += 1
            for item in db.bodies[i]:
                present[label, item] += 1
        a = self.alpha
        denom = (class_counts + 2 * a)[:, None]
        p_present = (present + a) / denom
        self._log_present = np.log(p_present)
        self._log_absent = np.log1p(-p_present)
        total = class_counts.sum()
        if total == 0:
            self._log_prior = np.log(np.array([0.5, 0.5]))
        else:
            self._log_prior = np.log((class_counts + a) / (total + 2 * a))
        self._fitted = True
        return self

    # -- scoring ---------------------------------------------------------- #

    def posterior(self, items: set[int]) -> float:
        """P(failure in the next window | observed item set)."""
        self._check_fitted()
        assert self._log_present is not None
        scores = self._log_prior.copy()
        for cls in (0, 1):
            row_p = self._log_present[cls]
            row_a = self._log_absent[cls]
            s = row_a.sum()
            for item in items:
                if 0 <= item < self._n_items:
                    s += row_p[item] - row_a[item]
            scores[cls] += s
        m = scores.max()
        probs = np.exp(scores - m)
        return float(probs[1] / probs.sum())

    def predict(self, events: EventStore) -> list[FailureWarning]:
        """Sliding-window scoring with per-horizon deduplication."""
        self._check_fitted()
        warnings: list[FailureWarning] = []
        if len(events) == 0:
            return warnings
        w = int(self.window)
        in_window: deque[tuple[int, int]] = deque()
        counts: dict[int, int] = {}
        active_until = -1
        times = events.times
        # Labels the fit never saw map past the tables, where they count
        # as window contents but carry no evidence.
        subcats = item_ids_for(events, self._item_index, unseen=self._n_items)
        fatal_mask = events.fatal_mask()
        for i in range(len(events)):
            t = int(times[i])
            while in_window and in_window[0][0] < t - w:
                _, old = in_window.popleft()
                counts[old] -= 1
                if counts[old] == 0:
                    del counts[old]
            if fatal_mask[i]:
                continue
            item = int(subcats[i])
            in_window.append((t, item))
            counts[item] = counts.get(item, 0) + 1
            if t <= active_until:
                continue
            post = self.posterior(set(counts))
            if post >= self.threshold:
                warning = FailureWarning(
                    issued_at=t,
                    horizon_start=t + 1,
                    horizon_end=t + w,
                    confidence=post,
                    source=self.name,
                    detail=f"posterior={post:.3f} over {len(counts)} items",
                )
                warnings.append(warning)
                active_until = warning.horizon_end
        return warnings
