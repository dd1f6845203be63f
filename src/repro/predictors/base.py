"""Predictor interface and the warning stream model.

A predictor consumes a Phase-1 event store and emits
:class:`FailureWarning` objects: "a failure is expected within
``[horizon_start, horizon_end]``".  The evaluation layer
(:mod:`repro.evaluation.matching`) scores warning streams against the fatal
events that actually occurred; nothing in a predictor ever needs to know the
future.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.ras.store import EventStore
from repro.util.validation import check_fraction


class NotFittedError(RuntimeError):
    """Predictor used before :meth:`Predictor.fit`."""


@dataclass(frozen=True)
class FailureWarning:
    """One prediction: a failure is expected within the horizon.

    Attributes
    ----------
    issued_at:
        Time the warning was raised (epoch seconds).  Must not exceed
        ``horizon_start`` — warnings cannot be issued retroactively.
    horizon_start / horizon_end:
        Closed interval in which a failure is predicted.  ``horizon_start``
        is strictly after ``issued_at`` for non-trivial lead time semantics.
    confidence:
        The predictor's confidence in [0, 1] (rule confidence, estimated
        follow-up probability, ...).
    source:
        Which method produced it (``"statistical"``, ``"rule"``, ``"meta"``).
    detail:
        Human-readable cause (trigger category, rule text, ...); also used as
        the deduplication key within a source.
    """

    issued_at: int
    horizon_start: int
    horizon_end: int
    confidence: float
    source: str
    detail: str = ""

    def __post_init__(self) -> None:
        if self.horizon_start < self.issued_at:
            raise ValueError("horizon_start must be >= issued_at")
        if self.horizon_end < self.horizon_start:
            raise ValueError("horizon_end must be >= horizon_start")
        check_fraction(self.confidence, "confidence")

    def covers(self, time: float) -> bool:
        """True if ``time`` falls inside the prediction horizon."""
        return self.horizon_start <= time <= self.horizon_end


class Predictor(abc.ABC):
    """Common interface of all base predictors and the meta-learner."""

    #: Short identifier used in warning ``source`` fields and reports.
    name: str = "predictor"

    def __init__(self) -> None:
        self._fitted = False

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} must be fit() first")

    def mark_fitted(self) -> "Predictor":
        """Declare this predictor trained without calling :meth:`fit`.

        The public constructor path for restoring learned state — model
        deserialization (:mod:`repro.core.serialize`) and the artifact cache
        (:mod:`repro.cache`) install the learned attributes and then call
        this instead of poking the private flag.  Returns ``self`` so
        restore pipelines can chain it.
        """
        self._fitted = True
        return self

    @abc.abstractmethod
    def fit(self, events: EventStore) -> "Predictor":
        """Learn from a Phase-1 (classified, compressed) training store."""

    @abc.abstractmethod
    def predict(self, events: EventStore) -> list[FailureWarning]:
        """Emit warnings for a test store, in issue-time order."""


def dedup_warnings(
    warnings: Iterable[FailureWarning],
) -> list[FailureWarning]:
    """Suppress re-issues while an identical warning is still active.

    A warning is dropped when an earlier *kept* warning with the same
    ``(source, detail)`` has a horizon that still covers the new issue time.
    This is the paper's implicit online behaviour: a rule that stays matched
    while its precursor events linger in the observation window constitutes
    one prediction, not one prediction per polling tick.
    """
    active: dict[tuple[str, str], int] = {}
    kept: list[FailureWarning] = []
    for w in sorted(warnings, key=lambda w: (w.issued_at, -w.confidence)):
        key = (w.source, w.detail)
        end = active.get(key)
        if end is not None and w.issued_at <= end:
            continue
        active[key] = w.horizon_end
        kept.append(w)
    return kept


def merge_warning_streams(
    *streams: Sequence[FailureWarning],
) -> list[FailureWarning]:
    """Merge several warning streams into one, ordered by issue time."""
    merged = [w for s in streams for w in s]
    merged.sort(key=lambda w: (w.issued_at, -w.confidence))
    return merged
