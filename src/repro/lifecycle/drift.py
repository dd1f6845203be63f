"""Streaming drift detection against the training distribution.

Failure patterns in RAS logs evolve over months of operation (the premise
of the paper's own mining step), so a deployed predictor must notice when
the live stream stops resembling what it trained on.  :class:`DriftMonitor`
watches two complementary signals:

- **Input drift** — the distribution of event *subcategories* in a sliding
  window of recent events, compared against the training store's reference
  histogram with two classical statistics: the Population Stability Index
  (``PSI = sum((p_live - p_ref) * ln(p_live / p_ref))``) and Pearson's
  chi-square goodness-of-fit statistic.  PSI is scale-free (rule of thumb:
  < 0.1 stable, > 0.25 shifted) and is the thresholded signal; chi-square
  rides along for dashboards.  Both use add-half smoothing so labels absent
  on either side stay finite.
- **Output drift** — online precision over the most recently *resolved*
  warnings (:class:`PrecisionTracker`), fed from
  :class:`~repro.online.resolution.SessionStats` deltas.  Input drift says
  the world changed; a precision drop says the model stopped coping.

RAS taxonomies run to hundreds of subcategories while drift windows hold a
few thousand events, and PSI over that many sparse bins measures smoothing
noise, not shift.  The monitor therefore buckets: the reference's
``top_labels`` most common subcategories keep their own bins and the long
tail aggregates into :data:`OTHER_LABEL` — the standard "≤ 25 bins" PSI
practice, applied identically to both sides of the comparison.

Everything is pure counting — no RNG, no clock — so a replayed stream
produces bit-identical scores.  Each :meth:`DriftMonitor.evaluate` records
``lifecycle.drift_score`` / ``lifecycle.drift_chi2`` gauges against the
active :mod:`repro.obs` registry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

import numpy as np

from repro.obs import get_registry
from repro.online.resolution import SessionStats
from repro.ras.store import UNCLASSIFIED, EventStore
from repro.util.validation import check_positive


#: Aggregate bin for subcategories outside the reference's top set.
OTHER_LABEL = "__other__"


def subcategory_counts(store: EventStore) -> dict[str, int]:
    """Event count per subcategory name (unclassified rows are skipped)."""
    return store.subcat_counts()


def _distribution(
    counts: Mapping[str, Union[int, float]], labels: list[str], smooth: float
) -> np.ndarray:
    """Smoothed probability vector of ``counts`` over ``labels``."""
    raw = np.array([float(counts.get(name, 0)) + smooth for name in labels])
    return raw / raw.sum()


def psi_score(
    reference: Mapping[str, Union[int, float]],
    live: Mapping[str, Union[int, float]],
    *,
    smooth: float = 0.5,
) -> float:
    """Population Stability Index between two label-count histograms."""
    labels = sorted(set(reference) | set(live))
    if not labels:
        return 0.0
    p = _distribution(reference, labels, smooth)
    q = _distribution(live, labels, smooth)
    return float(np.sum((q - p) * np.log(q / p)))


def chi_square_score(
    reference: Mapping[str, Union[int, float]],
    live: Mapping[str, Union[int, float]],
    *,
    smooth: float = 0.5,
) -> float:
    """Pearson chi-square statistic of ``live`` against ``reference``.

    Expected counts are the reference proportions scaled to the live window
    size; add-half smoothing keeps unseen labels finite.  The raw statistic
    (not a p-value) is reported — threshold it against the caller's own
    critical value if needed; the monitor thresholds PSI instead.
    """
    labels = sorted(set(reference) | set(live))
    n_live = float(sum(live.values()))
    if not labels or n_live <= 0:
        return 0.0
    p = _distribution(reference, labels, smooth)
    observed = np.array([float(live.get(name, 0)) for name in labels])
    expected = p * n_live
    return float(np.sum((observed - expected) ** 2 / expected))


@dataclass(frozen=True)
class DriftSignal:
    """One drift evaluation: scores plus the threshold verdict."""

    score: float  # PSI
    chi_square: float
    window_events: int
    drifted: bool
    precision: Optional[float] = None


class PrecisionTracker:
    """Online precision over the last ``window`` *resolved* warnings.

    Resolved means the horizon verdict is in: a hit or a false alarm.
    Feed it :class:`SessionStats` snapshots (cumulative counters); the
    tracker diffs against the previous snapshot, so it composes with any
    resolver without hooking its internals.
    """

    def __init__(self, window: int = 256) -> None:
        check_positive(window, "window")
        self._outcomes: deque[int] = deque(maxlen=int(window))
        self._seen_hits = 0
        self._seen_false = 0

    def observe_stats(self, stats: SessionStats) -> None:
        """Absorb a cumulative stats snapshot (monotone counters)."""
        self.observe_resolutions(
            stats.hits - self._seen_hits,
            stats.false_alarms - self._seen_false,
        )

    def observe_resolutions(self, hits: int, false_alarms: int) -> None:
        """Record ``hits`` then ``false_alarms`` newly resolved warnings."""
        if hits < 0 or false_alarms < 0:
            raise ValueError("resolution deltas must be non-negative")
        self._seen_hits += hits
        self._seen_false += false_alarms
        self._outcomes.extend([1] * hits)
        self._outcomes.extend([0] * false_alarms)

    @property
    def resolved(self) -> int:
        """Resolved warnings currently inside the window."""
        return len(self._outcomes)

    def precision(self) -> Optional[float]:
        """Window precision, or ``None`` before anything resolved."""
        if not self._outcomes:
            return None
        return sum(self._outcomes) / len(self._outcomes)


class DriftMonitor:
    """Sliding-window subcategory-distribution drift against a reference.

    Parameters
    ----------
    reference:
        The training store (its subcategory histogram becomes the reference
        distribution) or a pre-computed ``label -> count`` mapping.
    window:
        Live-window size in events.  The monitor stays silent (``drifted``
        False) until the window has filled once — a half-empty histogram
        compared against a full reference is noise, not signal.
    threshold:
        PSI level at or above which :meth:`evaluate` reports drift.
    top_labels:
        Bin budget: the reference's most common subcategories (count, then
        name, for determinism) keep their own bins; the rest — on both the
        reference and live sides — aggregate into :data:`OTHER_LABEL`.
        ``None`` disables bucketing (full label space).
    precision_window:
        Size of the embedded :class:`PrecisionTracker` ring.
    """

    def __init__(
        self,
        reference: Union[EventStore, Mapping[str, int]],
        *,
        window: int = 4096,
        threshold: float = 0.25,
        top_labels: Optional[int] = 10,
        precision_window: int = 256,
    ) -> None:
        check_positive(window, "window")
        check_positive(threshold, "threshold")
        if top_labels is not None:
            check_positive(top_labels, "top_labels")
        self.window = int(window)
        self.threshold = float(threshold)
        self.top_labels = top_labels
        self.precision = PrecisionTracker(precision_window)
        self._live: deque[str] = deque(maxlen=self.window)
        self._counts: dict[str, int] = {}
        self.events_seen = 0
        self._keep: Optional[frozenset[str]] = None
        self.reference: dict[str, int] = {}
        self._set_reference(reference)

    def _set_reference(
        self, reference: Union[EventStore, Mapping[str, int]]
    ) -> None:
        if isinstance(reference, EventStore):
            reference = subcategory_counts(reference)
        counts = {k: int(v) for k, v in reference.items() if v > 0}
        if not counts:
            raise ValueError("reference histogram is empty")
        if self.top_labels is not None and len(counts) > self.top_labels:
            ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            self._keep = frozenset(k for k, _ in ranked[: self.top_labels])
            bucketed: dict[str, int] = {}
            for name, n in counts.items():
                bucketed[self._bin(name)] = bucketed.get(self._bin(name), 0) + n
            counts = bucketed
        else:
            self._keep = None
        self.reference = counts

    def _bin(self, label: str) -> str:
        """The histogram bin a subcategory label lands in."""
        if self._keep is not None and label not in self._keep:
            return OTHER_LABEL
        return label

    # ------------------------------------------------------------------ #
    # Feeding
    # ------------------------------------------------------------------ #

    def observe(self, label: str) -> None:
        """Push one event's subcategory label into the live window."""
        label = self._bin(label)
        live = self._live
        counts = self._counts
        if len(live) == live.maxlen:
            evicted = live.popleft()
            remaining = counts[evicted] - 1
            if remaining:
                counts[evicted] = remaining
            else:
                del counts[evicted]
        live.append(label)
        counts[label] = counts.get(label, 0) + 1
        self.events_seen += 1

    def observe_labels(self, labels: Iterable[str]) -> None:
        """Push a batch of labels (stream order)."""
        for label in labels:
            self.observe(label)

    def observe_store(self, store: EventStore) -> None:
        """Push a classified store chunk (unclassified rows are skipped).

        The chunk's label *ids* are translated through its own intern table,
        so chunks from differently-built stores feed the same histogram.
        """
        ids = store.subcat_ids
        mask = ids != UNCLASSIFIED
        if not mask.any():
            return
        table = store.subcat_table
        self.observe_labels(table[i] for i in ids[mask].tolist())

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #

    @property
    def window_full(self) -> bool:
        return len(self._live) >= self.window

    def score(self) -> float:
        """Current PSI of the live window against the reference."""
        return psi_score(self.reference, self._counts)

    def evaluate(self, stats: Optional[SessionStats] = None) -> DriftSignal:
        """Score the window, update precision, and record the gauges.

        ``drifted`` is only raised once the live window has filled; the
        score itself is always computed so dashboards see warm-up too.
        """
        if stats is not None:
            self.precision.observe_stats(stats)
        score = self.score()
        chi2 = chi_square_score(self.reference, self._counts)
        signal = DriftSignal(
            score=score,
            chi_square=chi2,
            window_events=len(self._live),
            drifted=self.window_full and score >= self.threshold,
            precision=self.precision.precision(),
        )
        obs = get_registry()
        obs.gauge("lifecycle.drift_score", score)
        obs.gauge("lifecycle.drift_chi2", chi2)
        if signal.precision is not None:
            obs.gauge("lifecycle.live_precision", signal.precision)
        return signal

    def rebase(self, reference: Union[EventStore, Mapping[str, int]]) -> None:
        """Replace the reference (after retraining) and clear the window.

        The retrained model's training window *is* the new normal; keeping
        the old reference would re-fire drift forever.  The top-label bin
        set is recomputed from the new reference.
        """
        self._set_reference(reference)
        self._live.clear()
        self._counts.clear()
